// Aespipeline: the paper's headline workload end to end — compile
// aes.nova (AES-128 packet encryption) with the ILP allocator, run a
// multi-threaded batch of packets on the simulated micro-engine, verify
// every output block against the FIPS-197-correct Go implementation,
// and report throughput per payload size.
//
//	go run ./examples/aespipeline
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/fleet"
	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/pktgen"
	"repro/internal/workloads"
)

func main() {
	fmt.Println("compiling aes.nova (ILP register/bank allocation) ...")
	start := time.Now()
	w, err := fleet.Compile("aes", &mip.Options{Time: 4 * time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	comp := w.Comp
	root, total := comp.Alloc.SolveTimes()
	fmt.Printf("compiled in %v (root LP %v, integer %v; %v)\n",
		time.Since(start).Round(time.Millisecond),
		root.Round(time.Millisecond), total.Round(time.Millisecond),
		comp.Alloc.MIP.Status)
	fmt.Printf("  %d moves, %d spills, %d code words\n\n",
		comp.Alloc.NumMoves(), comp.Alloc.Spills, comp.Asm.CodeWords())

	const threads = 4
	o := fleet.Options{Engines: 1, Threads: threads}.Normalize()
	for _, payload := range []int{16, 64, 256} {
		chip := ixp.NewChip(o.MachineConfig(), o.Engines)
		w.Init(chip)
		// The reference cipher encrypts the same packets, staged by the
		// same adapter, in a second chip's memory.
		ref := ixp.NewChip(o.MachineConfig(), o.Engines)
		batch := make([]*pktgen.Packet, threads)
		for th := range batch {
			batch[th] = &pktgen.Packet{Words: pktgen.BuildTCP(int64(th+1), payload).Words, PayloadBytes: payload, Kind: w.Kind}
			args := w.Stage(ref, th, batch[th])
			workloads.AESOracle(ref.SDRAM(), args[0], args[1])
		}
		st, err := w.RunBatch(chip, batch, o.BatchBudget)
		if err != nil {
			log.Fatal(err)
		}
		// Differential check against the Go reference cipher.
		for i, want := range ref.SDRAM() {
			if got := chip.SDRAM()[i]; got != want {
				log.Fatalf("mismatch at sdram[%#x]: sim %#x, reference %#x", i, got, want)
			}
		}
		secs := chip.Seconds(st.Cycles)
		mbps := float64(threads*payload*8) / secs / 1e6
		fmt.Printf("payload %3d B: %7.0f cycles/packet, %6.1f Mb/s per engine (~%5.0f per chip) [verified]\n",
			payload, float64(st.Cycles)/threads, mbps, mbps*6)
	}
}
