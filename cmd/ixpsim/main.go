// Ixpsim compiles one of the built-in benchmark workloads (§11 of the
// paper) and runs it on the cycle-level IXP1200 micro-engine simulator
// with generated packets, reporting cycles and throughput. The single
// run is one fleet.Solo batch on a one-engine chip: one packet per
// thread, staged by the workload's fleet adapter.
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

	"repro/internal/fleet"
	"repro/internal/mip"
)

func main() {
	name := flag.String("workload", "aes", "workload: aes, kasumi, nat")
	payload := flag.Int("payload", 64, "payload bytes per packet")
	threads := flag.Int("threads", 4, "hardware threads")
	flag.Parse()

	if *fleetN > 0 || *soak {
		os.Exit(runFleet(*name, *payload, *threads))
	}

	fmt.Printf("compiling %s.nova ...\n", *name)
	start := time.Now()
	w, err := fleet.Compile(*name, &mip.Options{Time: 4 * time.Minute})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("compiled in %v: %d code words, %d moves, %d spills\n",
		time.Since(start).Round(time.Millisecond),
		w.Comp.Asm.CodeWords(), w.Comp.Alloc.NumMoves(), w.Comp.Alloc.Spills)

	opts := fleet.Options{Engines: 1, Threads: *threads}
	st, err := fleet.Solo(w, opts, *payload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := opts.Normalize().MachineConfig()
	secs := float64(st.Cycles) / (cfg.ClockMHz * 1e6)
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
		float64(st.Cycles)/float64(*threads), cfg.ClockMHz)
	fmt.Printf("  payload throughput: %.1f Mb/s per engine, ~%.1f Mb/s per chip (6 engines)\n",
		mbps, mbps*6)
}
