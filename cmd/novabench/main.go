// Novabench regenerates the paper's evaluation (§11): the static
// program statistics of Figure 5, the AMPL coloring statistics of
// Figure 6, the solver statistics of Figure 7, and the throughput,
// chip-scaling and latency-hiding measurements, using this
// reproduction's compiler, solver, and simulator. Below Figure 7 it
// prints the same statistics with one model option changed: the
// §7-§9 ablation, the paper's per-point model, and §11's
// "are spills required at all?" objective.
//
// Usage:
//
//	novabench [-table fig5|fig6|fig7|throughput|all]
//
// The programs compile with one ILP search worker, so every counter
// printed is deterministic; TestPaperTables and TestFig7Ablation pin
// them. The simulations are fleet.Solo batches: one packet per thread
// slot, staged by the workload's fleet adapter.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/workloads"
)

// program is one of the paper's benchmark programs.
type program struct {
	name     string // row label; lower-cased, the fleet.Compile name
	src      string // Nova source, for Figure 5's front-end statistics
	payloads []int  // throughput payload sizes in bytes (§11)
}

var programs = []program{
	{"AES", workloads.AESSource, []int{16, 64, 256}},
	{"Kasumi", workloads.KasumiSource, []int{8, 16, 256}},
	{"NAT", workloads.NATSource, []int{64, 256}},
}

// threads is the hardware threads per engine of every throughput run.
const threads = 4

// Chip scaling (engines per chip, from one) and latency hiding
// (threads on one engine) are measured on AES at sweepPayload bytes.
const sweepPayload = 64

var (
	scalingEngines = []int{1, 2, 4, 6}
	hidingThreads  = []int{1, 2, 4}
)

// ablation is one model option changed from nova.DefaultOptions.
type ablation struct {
	name string // as printed after the program name
	set  func(*nova.Options)
}

// ablations are the rows of the block below Figure 7, each run on
// every program: the paper's per-point model, the §7-§9 model options
// turned off, §12's constant bank C turned on, and §11's alternative
// objective, where the first spill-free incumbent answers "are spills
// required at all?".
var ablations = []ablation{
	{"Coarsen off", func(o *nova.Options) { o.Alloc.Coarsen = false }},
	{"Prune off", func(o *nova.Options) { o.Alloc.Prune = false }},
	{"RedundantAggregate off", func(o *nova.Options) { o.Alloc.RedundantAggregate = false }},
	{"BiasAB off", func(o *nova.Options) { o.Alloc.BiasAB = false }},
	{"Remat on", func(o *nova.Options) { o.Alloc.Remat = true }},
	{"NoSpill Gap 0.99", func(o *nova.Options) { o.Alloc.NoSpill = true; o.MIP.Gap = 0.99 }},
}

// mipOptions is the search every novabench compile runs: one worker,
// so node and iteration counts are deterministic.
func mipOptions() *mip.Options {
	return &mip.Options{Time: 4 * time.Minute, Workers: 1}
}

var compiled = map[string]*fleet.Workload{}

// compile builds p's fleet adapter once per process.
func compile(p program) (*fleet.Workload, error) {
	if w, ok := compiled[p.name]; ok {
		return w, nil
	}
	fmt.Fprintf(os.Stderr, "compiling %s.nova ...\n", p.name)
	w, err := fleet.Compile(strings.ToLower(p.name), mipOptions())
	if err != nil {
		return nil, err
	}
	compiled[p.name] = w
	return w, nil
}

// fig5Rows returns Figure 5's row per program, in programs order; so
// do fig6Rows and fig7Rows.
func fig5Rows() ([]nova.StaticStats, error) {
	var rows []nova.StaticStats
	for _, p := range programs {
		st, err := nova.StaticStatsOf(p.name+".nova", p.src)
		if err != nil {
			return nil, err
		}
		rows = append(rows, st)
	}
	return rows, nil
}

func fig6Rows() ([]core.AggStats, error) {
	var rows []core.AggStats
	for _, p := range programs {
		w, err := compile(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, w.Comp.Alloc.AggregateStats())
	}
	return rows, nil
}

// fig7Row is one compile's solver statistics. Root and Total are wall
// times; every other field but Name is a deterministic count.
type fig7Row struct {
	Name                         string // program, then any option changed
	Root, Total                  time.Duration
	Vars, Constraints, ObjTerms  int
	PresolvedVars, PresolvedRows int // left after presolve
	LPIters, Nodes               int
	Moves, Spills, CodeWords     int
}

func fig7Rows() ([]fig7Row, error) {
	var rows []fig7Row
	for _, p := range programs {
		w, err := compile(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, fig7RowOf(p.name, w.Comp))
	}
	return rows, nil
}

// ablationRows returns the block below Figure 7: for each of
// ablations, one row per program.
func ablationRows() ([]fig7Row, error) {
	var rows []fig7Row
	for _, ab := range ablations {
		for _, p := range programs {
			fmt.Fprintf(os.Stderr, "compiling %s.nova with %s ...\n", p.name, ab.name)
			opts := nova.DefaultOptions()
			opts.MIP = mipOptions()
			ab.set(&opts)
			c, err := nova.Compile(strings.ToLower(p.name)+".nova", p.src, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, fig7RowOf(p.name+" "+ab.name, c))
		}
	}
	return rows, nil
}

// fig7RowOf reads c's solver statistics into a row labelled name.
func fig7RowOf(name string, c *nova.Compilation) fig7Row {
	a, st := c.Alloc, c.Alloc.ModelStats
	r := fig7Row{
		Name: name,
		Vars: st.Vars, Constraints: st.Constraints, ObjTerms: st.ObjTerms,
		PresolvedVars: st.Vars, PresolvedRows: st.Constraints,
		LPIters: a.MIP.LPIters, Nodes: a.MIP.Nodes,
		Moves: a.NumMoves(), Spills: a.Spills, CodeWords: c.Asm.CodeWords(),
	}
	r.Root, r.Total = a.SolveTimes()
	if pre := st.Presolve; pre != nil {
		r.PresolvedVars -= pre.FixedVars
		r.PresolvedRows -= pre.DroppedRows
	}
	return r
}

// throughputRow is the cycles of one batch of threads packets per
// engine, on one engine and on the full ixp.NumEngines chip.
type throughputRow struct {
	Name               string
	Payload            int
	Cycles, ChipCycles int64
}

// throughputTable also holds the AES batch cycles at each of
// scalingEngines (threads per engine) and each of hidingThreads (one
// engine).
type throughputTable struct {
	Rows            []throughputRow
	Scaling, Hiding []int64
}

func throughputRows() (*throughputTable, error) {
	// cycles runs one fleet.Solo batch of w on a chip of engines engines
	// with perEngine threads each; after an error it runs nothing more,
	// and throughputRows returns the error.
	var err error
	cycles := func(w *fleet.Workload, payload, engines, perEngine int) int64 {
		if err != nil {
			return 0
		}
		var st *ixp.Stats
		st, err = fleet.Solo(w, fleet.Options{Engines: engines, Threads: perEngine}, payload)
		if err != nil {
			return 0
		}
		return st.Cycles
	}
	t := &throughputTable{}
	for _, p := range programs {
		w, err := compile(p)
		if err != nil {
			return nil, err
		}
		for _, payload := range p.payloads {
			t.Rows = append(t.Rows, throughputRow{p.name, payload,
				cycles(w, payload, 1, threads), cycles(w, payload, ixp.NumEngines, threads)})
		}
	}
	aes, _ := compile(programs[0]) // compiled above
	for _, e := range scalingEngines {
		t.Scaling = append(t.Scaling, cycles(aes, sweepPayload, e, threads))
	}
	for _, th := range hidingThreads {
		t.Hiding = append(t.Hiding, cycles(aes, sweepPayload, 1, th))
	}
	return t, err
}

func main() {
	which := flag.String("table", "all", "table to print: fig5, fig6, fig7, throughput, all")
	flag.Parse()
	all := *which == "all"
	if !all && !slices.Contains([]string{"fig5", "fig6", "fig7", "throughput"}, *which) {
		fmt.Fprintf(os.Stderr, "novabench: unknown table %q\n", *which)
		flag.Usage()
		os.Exit(2)
	}
	if all || *which == "fig5" {
		printFig5(must(fig5Rows()))
	}
	if all || *which == "fig6" {
		printFig6(must(fig6Rows()))
	}
	if all || *which == "fig7" {
		printFig7("Figure 7 — solver statistics (one search worker; vars'/rows' after presolve)", must(fig7Rows()))
		printFig7("Figure 7 with one model option changed", must(ablationRows()))
	}
	if all || *which == "throughput" {
		printThroughput(must(throughputRows()))
	}
}

// must exits with err's message when there is one.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return v
}

func printFig5(rows []nova.StaticStats) {
	fmt.Println("Figure 5 — static benchmark program statistics")
	fmt.Printf("%-8s %6s %8s %6s %8s %6s %7s\n",
		"", "Nova", "layouts", "pack", "unpack", "raise", "handle")
	for i, r := range rows {
		fmt.Printf("%-8s %6d %8d %6d %8d %6d %7d\n",
			programs[i].name, r.Lines, r.Layouts, r.Packs, r.Unpacks, r.Raises, r.Handles)
	}
	fmt.Println()
}

func printFig6(rows []core.AggStats) {
	fmt.Println("Figure 6 — AMPL statistics (temps in aggregate defs/uses)")
	fmt.Printf("%-8s %6s %6s %8s %6s %6s %8s\n",
		"", "DefL", "DefLD", "DefTot", "UseS", "UseSD", "UseTot")
	for i, r := range rows {
		fmt.Printf("%-8s %6d %6d %8d %6d %6d %8d\n",
			programs[i].name, r.DefL, r.DefLD, r.DefL+r.DefLD, r.UseS, r.UseSD, r.UseS+r.UseSD)
	}
	fmt.Println()
}

func printFig7(title string, rows []fig7Row) {
	w := 8
	for _, r := range rows {
		w = max(w, len(r.Name))
	}
	fmt.Println(title)
	fmt.Printf("%-*s %9s %11s %9s %12s %10s %6s %7s %6s %6s %8s %6s %6s\n",
		w, "", "root(s)", "integer(s)", "vars", "constraints", "obj-terms", "moves", "spills",
		"vars'", "rows'", "lp-iters", "nodes", "code")
	for _, r := range rows {
		fmt.Printf("%-*s %9.2f %11.2f %9d %12d %10d %6d %7d %6d %6d %8d %6d %6d\n",
			w, r.Name, r.Root.Seconds(), r.Total.Seconds(),
			r.Vars, r.Constraints, r.ObjTerms, r.Moves, r.Spills,
			r.PresolvedVars, r.PresolvedRows, r.LPIters, r.Nodes, r.CodeWords)
	}
	fmt.Println()
}

// mbps is the payload throughput of packets packets of payload bytes
// processed in cycles at the simulated clock.
func mbps(packets, payload int, cycles int64) float64 {
	hz := ixp.DefaultConfig().ClockMHz * 1e6
	return float64(packets*payload*8) / (float64(cycles) / hz) / 1e6
}

func printThroughput(t *throughputTable) {
	fmt.Println("Throughput (simulated 233 MHz engine, 4 threads; paper: 270 Mb/s AES@16B; 320/210/60 Mb/s Kasumi@8/16/256B)")
	fmt.Printf("%-8s %9s %14s %12s %12s\n", "", "payload", "cycles/packet", "Mbps/engine", "Mbps/chip")
	for _, r := range t.Rows {
		fmt.Printf("%-8s %8dB %14.0f %12.1f %12.1f\n",
			r.Name, r.Payload, float64(r.Cycles)/threads,
			mbps(threads, r.Payload, r.Cycles), mbps(ixp.NumEngines*threads, r.Payload, r.ChipCycles))
	}
	fmt.Printf("\nChip scaling (AES, %d B, %d threads per engine)\n", sweepPayload, threads)
	fmt.Printf("%-8s %9s %8s %12s %8s\n", "engines", "cycles", "Mbps", "Mbps/engine", "speedup")
	one := mbps(threads, sweepPayload, t.Scaling[0])
	for i, e := range scalingEngines {
		m := mbps(e*threads, sweepPayload, t.Scaling[i])
		fmt.Printf("%-8d %9d %8.1f %12.1f %7.1fx\n", e, t.Scaling[i], m, m/float64(e), m/one)
	}
	fmt.Printf("\nLatency hiding (AES, %d B, one engine, one packet per thread)\n", sweepPayload)
	fmt.Printf("%-8s %9s %14s\n", "threads", "cycles", "cycles/packet")
	for i, th := range hidingThreads {
		fmt.Printf("%-8d %9d %14.0f\n", th, t.Hiding[i], float64(t.Hiding[i])/float64(th))
	}
}
