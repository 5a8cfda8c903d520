// Novabench regenerates the paper's evaluation tables (§11): the
// static program statistics of Figure 5, the AMPL coloring statistics
// of Figure 6, the solver statistics of Figure 7, and the throughput
// measurements, using this reproduction's compiler, solver, and
// simulator.
//
// Usage:
//
//	novabench [-table fig5|fig6|fig7|throughput|all]
//	          [-presolve=false] [-dual=false] [-pprof :6060]
//	novabench -fleet [-json BENCH_fleet.json]
//	novabench -server host:port [-json BENCH_server.json]
//
// -json only goes with -fleet or -server; on its own it is a usage
// error.
//
// With -pprof, an HTTP server on the given address serves
// net/http/pprof profiles at /debug/pprof/ and the obs counter values
// at /debug/counters while the benchmarks run (DESIGN.md §8).
//
// With -fleet, novabench sweeps the multi-chip fleet harness
// (internal/fleet, DESIGN.md §13) over chip counts N in {1,2,4,8} for
// the three paper workloads, including a solo-chip baseline to measure
// the harness's per-packet overhead; -json writes the record
// BENCH_fleet.json holds.
//
// With -server host:port, novabench instead replays the three paper
// workloads and the MultiKnapsack solver benchmark against a live
// novad and reports per-tier serving latency percentiles (cold,
// source hit, model hit, near miss); -json writes the record
// BENCH_server.json holds.
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/ixp"
	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/obs"
	"repro/internal/pktgen"
	"repro/internal/workloads"
)

type wl struct {
	name string
	src  string
}

var table = []wl{
	{"AES", workloads.AESSource},
	{"Kasumi", workloads.KasumiSource},
	{"NAT", workloads.NATSource},
}

var compiled = map[string]*nova.Compilation{}

var (
	jobs     = flag.Int("j", 0, "parallel ILP search workers (0 = all cores)")
	presolve = flag.Bool("presolve", true, "ILP presolve reductions before the solves")
	dual     = flag.Bool("dual", true, "dual simplex for warm-started node re-solves")
)

func mipOptions() *mip.Options {
	o := &mip.Options{Time: 4 * time.Minute, Workers: *jobs}
	if !*presolve {
		o.Presolve = -1
	}
	if !*dual {
		// Pinning a Method other than Auto stops the tree search from
		// rerouting warm node re-solves through the dual simplex.
		o.LP = &lp.Options{Method: lp.MethodPrimal}
	}
	return o
}

func compile(w wl) *nova.Compilation {
	if c, ok := compiled[w.name]; ok {
		return c
	}
	opts := nova.DefaultOptions()
	opts.MIP = mipOptions()
	fmt.Fprintf(os.Stderr, "compiling %s.nova ...\n", w.name)
	c, err := nova.Compile(w.name+".nova", w.src, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	compiled[w.name] = c
	return c
}

func main() {
	which := flag.String("table", "all", "table to print: fig5, fig6, fig7, throughput, all")
	jsonOut := flag.String("json", "", "with -fleet or -server, write the JSON benchmark record to this path")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /debug/counters on this address while running")
	serverAddr := flag.String("server", "", "benchmark a live novad at this address (host:port) instead of compiling locally; with -json, writes BENCH_server.json-style output there")
	rounds := flag.Int("rounds", 20, "replays per cache tier in -server mode")
	fleetMode := flag.Bool("fleet", false, "sweep the multi-chip fleet harness over N chips; with -json, writes BENCH_fleet.json-style output there")
	flag.Parse()
	if *fleetMode {
		if err := runFleetBench(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *serverAddr != "" {
		if err := runServerBench(*serverAddr, *rounds, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut != "" {
		fmt.Fprintln(os.Stderr, "novabench: -json needs -fleet or -server")
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		// DefaultServeMux already carries the /debug/pprof/ handlers
		// from the blank net/http/pprof import.
		http.HandleFunc("/debug/counters", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snap := obs.TakeSnapshot()
			for _, name := range snap.Names() {
				fmt.Fprintf(w, "%s %d\n", name, snap[name])
			}
		})
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving /debug/pprof/ and /debug/counters on %s\n", *pprofAddr)
	}
	all := *which == "all"
	if all || *which == "fig5" {
		fig5()
	}
	if all || *which == "fig6" {
		fig6()
	}
	if all || *which == "fig7" {
		fig7()
	}
	if all || *which == "throughput" {
		throughput()
	}
}

func fig5() {
	fmt.Println("Figure 5 — static benchmark program statistics")
	fmt.Printf("%-8s %6s %8s %6s %8s %6s %7s\n",
		"", "Nova", "layouts", "pack", "unpack", "raise", "handle")
	for _, w := range table {
		st, err := nova.StaticStatsOf(w.name+".nova", w.src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-8s %6d %8d %6d %8d %6d %7d\n",
			w.name, st.Lines, st.Layouts, st.Packs, st.Unpacks, st.Raises, st.Handles)
	}
	fmt.Println()
}

func fig6() {
	fmt.Println("Figure 6 — AMPL statistics (temps in aggregate defs/uses)")
	fmt.Printf("%-8s %6s %6s %8s %6s %6s %8s\n",
		"", "DefL", "DefLD", "DefTot", "UseS", "UseSD", "UseTot")
	for _, w := range table {
		c := compile(w)
		st := c.Alloc.AggregateStats()
		fmt.Printf("%-8s %6d %6d %8d %6d %6d %8d\n",
			w.name, st.DefL, st.DefLD, st.DefL+st.DefLD, st.UseS, st.UseSD, st.UseS+st.UseSD)
	}
	fmt.Println()
}

func fig7() {
	fmt.Println("Figure 7 — solver statistics")
	fmt.Printf("%-8s %9s %11s %9s %12s %10s %6s %7s\n",
		"", "root(s)", "integer(s)", "vars", "constraints", "obj-terms", "moves", "spills")
	for _, w := range table {
		c := compile(w)
		root, total := c.Alloc.SolveTimes()
		st := c.Alloc.ModelStats
		fmt.Printf("%-8s %9.2f %11.2f %9d %12d %10d %6d %7d\n",
			w.name, root.Seconds(), total.Seconds(),
			st.Vars, st.Constraints, st.ObjTerms, c.Alloc.NumMoves(), c.Alloc.Spills)
	}
	fmt.Println()
}

func throughput() {
	fmt.Println("Throughput (simulated 233 MHz engine, 4 threads; paper: 270 Mb/s AES@16B; 320/210/60 Mb/s Kasumi@8/16/256B)")
	fmt.Printf("%-8s %9s %14s %12s %12s\n", "", "payload", "cycles/packet", "Mbps/engine", "Mbps/chip")
	cases := []struct {
		w        wl
		payloads []int
	}{
		{table[0], []int{16, 64, 256}},
		{table[1], []int{8, 16, 256}},
		{table[2], []int{64, 256}},
	}
	for _, tc := range cases {
		c := compile(tc.w)
		for _, payload := range tc.payloads {
			cycles := run(tc.w, c, payload, 1)
			chipCycles := run(tc.w, c, payload, ixp.NumEngines)
			cfg := ixp.DefaultConfig()
			hz := cfg.ClockMHz * 1e6
			mbps := float64(4*payload*8) / (float64(cycles) / hz) / 1e6
			chipMbps := float64(ixp.NumEngines*4*payload*8) / (float64(chipCycles) / hz) / 1e6
			fmt.Printf("%-8s %8dB %14.0f %12.1f %12.1f\n",
				tc.w.name, payload, float64(cycles)/4, mbps, chipMbps)
		}
	}
}

func run(w wl, c *nova.Compilation, payload, engines int) int64 {
	cfg := ixp.DefaultConfig()
	cfg.SRAMWords = 1 << 14
	cfg.SDRAMWords = 1 << 18
	cfg.Threads = 4
	chip := ixp.NewChip(cfg, engines)
	switch w.name {
	case "AES":
		workloads.InitAES(chip.SRAM())
	case "Kasumi":
		workloads.InitKasumi(chip.SRAM(), chip.Scratch())
	}
	chip.Load(c.Asm)
	regs, err := c.EntryRegs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for e := 0; e < engines; e++ {
		for th := 0; th < 4; th++ {
			slot := e*4 + th
			var args []uint32
			switch w.name {
			case "AES":
				pkt := pktgen.BuildTCP(int64(slot+1), payload)
				base := uint32(0x100 + slot*0x400)
				copy(chip.SDRAM()[base:], pkt.Words)
				args = []uint32{base, uint32(payload / 16)}
			case "Kasumi":
				pkt := pktgen.BuildTCP(int64(slot+1), payload)
				base := uint32(0x100 + slot*0x400)
				copy(chip.SDRAM()[base:], pkt.Words)
				args = []uint32{base, uint32(payload / 8)}
			case "NAT":
				words := pktgen.BuildIPv6TCP(int64(slot+1), payload)
				src6 := uint32(0x100 + slot*0x800)
				dst4 := uint32(0x20000 + slot*0x800)
				copy(chip.SDRAM()[src6:], words)
				args = []uint32{src6, dst4, uint32((payload + 7) / 8)}
			}
			if err := chip.Engines[e].SetArgs(th, regs, args); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	st, err := chip.Run(500_000_000)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return st.Cycles
}

// benchHost identifies the machine a -server or -fleet record was
// measured on.
type benchHost struct {
	CPU           string `json:"cpu"`
	PhysicalCores int    `json:"physical_cores"`
	OS            string `json:"os"`
	Go            string `json:"go"`
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }
func round4(x float64) float64 { return math.Round(x*10000) / 10000 }

// cpuModel reads the processor model name where the OS exposes one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
