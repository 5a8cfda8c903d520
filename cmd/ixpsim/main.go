// Ixpsim compiles one of the built-in benchmark workloads (§11 of the
// paper) and runs it on the cycle-level IXP1200 micro-engine simulator
// with generated packets, reporting cycles and throughput.
//
// Usage:
//
//	ixpsim [-workload aes|kasumi|nat] [-payload 64] [-threads 4]
//	ixpsim -fleet N [-packets 100000] [-flows 256] [-fault PLAN] [-soak]
//
// With -fleet N (or -soak) ixpsim runs the multi-chip fleet harness
// instead: N concurrently simulated chips served by a flow-sharding
// dispatcher, with optional fault injection (DESIGN.md §13).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/pktgen"
	"repro/internal/workloads"
)

func main() {
	name := flag.String("workload", "aes", "workload: aes, kasumi, nat")
	payload := flag.Int("payload", 64, "payload bytes per packet")
	threads := flag.Int("threads", 4, "hardware threads")
	flag.Parse()

	if *fleetN > 0 || *soak {
		os.Exit(runFleet(*name, *payload, *threads))
	}

	var src string
	switch *name {
	case "aes":
		src = workloads.AESSource
	case "kasumi":
		src = workloads.KasumiSource
	case "nat":
		src = workloads.NATSource
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	opts := nova.DefaultOptions()
	opts.MIP = &mip.Options{Time: 4 * time.Minute}
	fmt.Printf("compiling %s.nova ...\n", *name)
	start := time.Now()
	comp, err := nova.Compile(*name+".nova", src, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("compiled in %v: %d code words, %d moves, %d spills\n",
		time.Since(start).Round(time.Millisecond),
		comp.Asm.CodeWords(), comp.Alloc.NumMoves(), comp.Alloc.Spills)

	cfg := ixp.DefaultConfig()
	cfg.SRAMWords = 1 << 14
	cfg.SDRAMWords = 1 << 16
	cfg.Threads = *threads
	m := ixp.New(cfg)
	switch *name {
	case "aes":
		workloads.InitAES(m.SRAM)
	case "kasumi":
		workloads.InitKasumi(m.SRAM, m.Scratch)
	}
	m.Load(comp.Asm)
	regs, err := comp.EntryRegs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for th := 0; th < *threads; th++ {
		var args []uint32
		switch *name {
		case "aes":
			pkt := pktgen.BuildTCP(int64(th+1), *payload)
			base := uint32(0x100 + th*0x400)
			copy(m.SDRAM[base:], pkt.Words)
			args = []uint32{base, uint32(*payload / 16)}
		case "kasumi":
			pkt := pktgen.BuildTCP(int64(th+1), *payload)
			base := uint32(0x100 + th*0x400)
			copy(m.SDRAM[base:], pkt.Words)
			args = []uint32{base, uint32(*payload / 8)}
		case "nat":
			words := pktgen.BuildIPv6TCP(int64(th+1), *payload)
			src6 := uint32(0x100 + th*0x800)
			dst4 := uint32(0x8000 + th*0x800)
			copy(m.SDRAM[src6:], words)
			args = []uint32{src6, dst4, uint32((*payload + 7) / 8)}
		}
		if err := m.SetArgs(th, regs, args); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	st, err := m.Run(500_000_000)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	secs := m.Seconds(st.Cycles)
	bits := float64(*threads * *payload * 8)
	mbps := bits / secs / 1e6
	fmt.Printf("%d packets (%d B payload) on %d threads:\n", *threads, *payload, *threads)
	fmt.Printf("  %d cycles (%d instrs, %d mem refs, %d swaps)\n",
		st.Cycles, st.Instrs, st.MemRefs, st.Swaps)
	fmt.Printf("  mem refs by space: %d sram, %d sdram, %d scratch, %d hash, %d fifo\n",
		st.SRAMRefs, st.SDRAMRefs, st.ScratchRefs, st.HashRefs, st.FIFORefs)
	fmt.Printf("  lost cycles: %d stalled (no runnable thread), %d waiting on memory ports\n",
		st.StallCycles, st.PortWaitCycles)
	fmt.Printf("  %.0f cycles/packet at %.0f MHz\n",
		float64(st.Cycles)/float64(*threads), m.Cfg.ClockMHz)
	fmt.Printf("  payload throughput: %.1f Mb/s per engine, ~%.1f Mb/s per chip (6 engines)\n",
		mbps, mbps*6)
}
