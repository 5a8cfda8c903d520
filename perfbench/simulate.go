package main

import (
	"fmt"
	"maps"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/pktgen"
)

// The simulate workload is the cost every soak, sweep and CI smoke
// pays: fleet.Run on 2 chips x 6 engines x 4 threads over a seeded
// FlowGen stream of 64-byte packets on 256 flows, no faults. AES runs
// first (bound by simulated instructions inside ixp), then NAT (bound by
// per-packet harness cost), each as simRounds fleet.Run calls sized to
// take about half the window on the reference host. Set-up compiles the
// two programs and loads their tables into a chip; it runs three times
// after a warm-up compile and reports the median. After the window
// every run must reconcile and every flow's digest must equal the one
// recomputed from the oracles.

const (
	simChips   = 2
	simFlows   = 256
	simPayload = 64
	simRounds  = 4
)

// simPrograms are the two programs the workload runs, in order, with
// the host packet rate (packets/s, reference host) used to size their
// rounds so each takes about half of the window.
var simPrograms = []struct {
	name string
	pps  float64
}{{"aes", 4000}, {"nat", 60000}}

// simRun is one fleet.Run round.
type simRun struct {
	res     *fleet.Result
	wall    time.Duration
	seed    int64
	packets int64
}

// simMaxResidualPct is the stated bound on the share of the bare loop's
// time that no named layer accounts for (the loop's own bookkeeping).
const simMaxResidualPct = 2.0

func runSimulate(b *bench) error {
	opts := fleet.Options{Chips: simChips}.Normalize()
	// The first compile of a process is slower than the next; warming
	// the compiler first keeps that out of the timed set-ups.
	if err := warmUp(); err != nil {
		return err
	}
	ws, setup, err := medianSetup(3, func() ([]*fleet.Workload, error) { return simSetup(opts) })
	if err != nil {
		return err
	}

	if !b.trace {
		runs := simPass(b, ws, opts)
		b.set("setup_s", setup)
		var p50s, tails, pps []float64
		for i := range ws {
			var walls []float64
			var delivered int64
			var wall time.Duration
			for _, r := range runs[i] {
				walls = append(walls, ms(r.wall))
				delivered += r.res.Delivered
				wall += r.wall
			}
			p50s = append(p50s, median(walls))
			tails = append(tails, tail(walls))
			pps = append(pps, float64(delivered)/wall.Seconds())
		}
		b.set("p50_ms", geomean(p50s...))
		b.set("tail_ms", geomean(tails...))
		b.set("goodput_per_s", geomean(pps...))
		checkSim(b, ws, runs)
		b.det = simCounts(ws, runs)
		return nil
	}

	untraced := simPass(b, ws, opts)
	// The harness reference, untraced: each program's first round is
	// generated in a timed pass of its own, then replayed through a
	// 1-chip fleet.Run and through the bare solo-chip loop, so neither
	// pays for the generator and both run one chip.
	one := opts
	one.Chips = 1
	var genWall, fleetWall time.Duration
	var genPackets int64
	var ref soloRun
	for i, w := range ws {
		r := untraced[i][0]
		t0 := time.Now()
		var pkts []*pktgen.Packet
		src := simSource(w, r.seed, r.packets)
		for p := src(); p != nil; p = src() {
			pkts = append(pkts, p)
		}
		genWall += time.Since(t0)
		genPackets += int64(len(pkts))
		t0 = time.Now()
		res, err := fleet.Run(w, replay(pkts), one)
		fleetWall += time.Since(t0)
		if !b.check(err == nil, "%s 1-chip fleet.Run: %v", w.Name, err) {
			continue
		}
		b.check(maps.Equal(res.FlowDigests, r.res.FlowDigests), "%s 1-chip fleet.Run digests differ from 2 chips", w.Name)
		s, err := soloChipRun(w, replay(pkts), opts)
		if err != nil {
			return fmt.Errorf("%s solo loop: %w", w.Name, err)
		}
		b.check(maps.Equal(s.digests, r.res.FlowDigests), "%s solo loop digests differ from fleet.Run", w.Name)
		ref.wall += s.wall
		ref.runWall += s.runWall
		ref.instrs += s.instrs
	}

	rec := obs.Start("perfbench simulate")
	cpu0 := processCPU()
	traced := simPass(b, ws, opts)
	cpu := processCPU() - cpu0
	deltas := rec.CounterDeltas()
	// The layer split: the bare loop over each first round, traced. No
	// span is added inside fleet.Run, so its layers are not told apart;
	// the bare loop does the same per-packet work in spans of its own.
	var loopWall time.Duration
	for i, w := range ws {
		r := traced[i][0]
		s, err := soloChipRun(w, simSource(w, r.seed, r.packets), opts)
		if err != nil {
			return fmt.Errorf("%s traced solo loop: %w", w.Name, err)
		}
		b.check(maps.Equal(s.digests, r.res.FlowDigests), "%s traced solo loop digests differ from fleet.Run", w.Name)
		loopWall += s.wall
	}
	spans, err := stopTrace(b, rec)
	if err != nil {
		return err
	}
	checkSim(b, ws, traced)
	checkSim(b, ws, untraced)

	var tracedWall time.Duration
	var instrs int64
	for i, w := range ws {
		var wall time.Duration
		var delivered int64
		for _, r := range traced[i] {
			wall += r.wall
			delivered += r.res.Delivered
			instrs += r.res.Agg.Instrs
		}
		tracedWall += wall
		b.set("sim_pps."+w.Name, float64(delivered)/wall.Seconds())
	}
	b.set("sim_mips", float64(instrs)/tracedWall.Seconds()/1e6)
	b.set("fleet.cpu_per_wall", cpu.Seconds()/tracedWall.Seconds())
	b.set("fleet.overhead_pct", 100*(fleetWall.Seconds()/ref.wall.Seconds()-1))
	b.set("ixp.host_ns_per_instr", float64(ref.runWall)/float64(ref.instrs))
	b.set("pktgen.ns_per_packet", float64(genWall)/float64(genPackets))
	setCounterMetrics(b, deltas, "")
	reportLayers(b, selfTimes(spans, "bench/solo_loop", ""), ms(loopWall), simMaxResidualPct)
	b.set("trace.overhead_pct", 100*(simP50(traced)/simP50(untraced)-1))
	b.compareCounts("the untraced pass", simCounts(ws, untraced), simCounts(ws, traced))
	b.det = simCounts(ws, traced)
	return nil
}

// simSetup compiles the two programs and loads their tables into one
// chip, as every fleet.Run does for each of its chips.
func simSetup(opts fleet.Options) ([]*fleet.Workload, error) {
	var ws []*fleet.Workload
	for _, p := range simPrograms {
		w, err := fleet.Compile(p.name, &mip.Options{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", p.name, err)
		}
		ws = append(ws, w)
	}
	chip := ixp.NewChip(opts.MachineConfig(), opts.Engines)
	for _, w := range ws {
		if w.Init != nil {
			w.Init(chip)
		}
	}
	return ws, nil
}

// processCPU is the process's user and system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// simPass runs every program's rounds through fleet.Run, each call in a
// bench/fleet_run span.
func simPass(b *bench, ws []*fleet.Workload, opts fleet.Options) [][]*simRun {
	runs := make([][]*simRun, len(ws))
	for i, w := range ws {
		n := int64(simPrograms[i].pps * b.seconds / 2 / simRounds)
		for round := 0; round < simRounds; round++ {
			r := &simRun{seed: b.seed*1000 + int64(i*simRounds+round), packets: n}
			sp := obs.StartSpan("bench/fleet_run")
			t0 := time.Now()
			res, err := fleet.Run(w, simSource(w, r.seed, n), opts)
			r.wall = time.Since(t0)
			sp.End()
			if !b.check(err == nil, "%s fleet.Run: %v", w.Name, err) {
				res = &fleet.Result{}
			}
			r.res = res
			runs[i] = append(runs[i], r)
		}
	}
	return runs
}

// simSource is one round's packet stream.
func simSource(w *fleet.Workload, seed, n int64) fleet.Source {
	return pktgen.NewFlowGen(w.Kind, seed, simFlows, simPayload).Take(n)
}

// replay is a source that yields pkts in order.
func replay(pkts []*pktgen.Packet) fleet.Source {
	i := 0
	return func() *pktgen.Packet {
		if i == len(pkts) {
			return nil
		}
		i++
		return pkts[i-1]
	}
}

// checkSim checks every round: the fleet's accounting reconciles, every
// packet was delivered, and each flow's digest equals the digest
// recomputed from the oracles over the same stream. Each packet is one
// attempted operation; the packets of a flow whose digest differs fail.
func checkSim(b *bench, ws []*fleet.Workload, runs [][]*simRun) {
	for i, w := range ws {
		for _, r := range runs[i] {
			err := r.res.Reconcile()
			if !b.checkN(r.packets, err == nil && r.res.Delivered == r.packets,
				"%s round %d: %d of %d delivered, reconcile: %v", w.Name, r.seed, r.res.Delivered, r.packets, err) {
				continue
			}
			want, count := oracleDigests(w.Name, simSource(w, r.seed, r.packets))
			for flow, n := range count {
				b.checkN(n, r.res.FlowDigests[flow] == want[flow] && r.res.FlowPackets[flow] == n,
					"%s round %d flow %d digest differs from the oracle", w.Name, r.seed, flow)
			}
		}
	}
}

// oracleDigests folds each packet's oracle output into its flow's
// digest the way the fleet's aggregator folds delivered packets.
func oracleDigests(name string, src fleet.Source) (digests map[uint64]uint64, packets map[uint64]int64) {
	digests, packets = map[uint64]uint64{}, map[uint64]int64{}
	for p := src(); p != nil; p = src() {
		out, ret := oracle(name, p)
		d := fleet.Digest(fleet.Digest(fleet.DigestSeed, out), []uint32{ret})
		digests[p.Flow] += flowFold(d, p.Seq)
		packets[p.Flow]++
	}
	return digests, packets
}

// flowFold is the per-packet term of a flow digest: the packet digest
// mixed with its in-flow sequence number, so the sum over a flow is
// order-independent but still pins every packet.
func flowFold(digest uint64, seq int64) uint64 {
	return mix64(digest ^ mix64(uint64(seq)+0x51ed270b))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// soloRun is one pass of the bare loop.
type soloRun struct {
	wall    time.Duration // the whole loop
	runWall time.Duration // inside chip.Run
	instrs  int64
	digests map[uint64]uint64
}

// soloChipRun replays a stream through one chip with no harness: the
// same engine-major batching, staging and digesting the fleet worker
// does, minus dispatcher, rings and goroutines. It is the reference for
// fleet.overhead_pct (wall) and ixp.host_ns_per_instr (runWall). Under
// a recorder, the loop is a bench/solo_loop span and each batch's steps
// are spans of their layers: bench/gen (pktgen), bench/stage and
// bench/collect (the fleet workload's adapters) and bench/chip_run
// (ixp).
func soloChipRun(w *fleet.Workload, src fleet.Source, o fleet.Options) (soloRun, error) {
	s := soloRun{digests: map[uint64]uint64{}}
	loop := obs.StartSpan("bench/solo_loop")
	defer loop.End()
	start := time.Now()
	sp := obs.StartSpan("bench/stage")
	chip := ixp.NewChip(o.MachineConfig(), o.Engines)
	if w.Init != nil {
		w.Init(chip)
	}
	sp.End()
	slots := o.Engines * o.Threads
	batch := make([]*pktgen.Packet, 0, slots)
	for {
		sp = obs.StartSpan("bench/gen")
		for len(batch) < slots {
			p := src()
			if p == nil {
				break
			}
			batch = append(batch, p)
		}
		sp.End()
		if len(batch) == 0 {
			break
		}
		sp = obs.StartSpan("bench/stage")
		chip.Load(w.Prog)
		for i, p := range batch {
			args := w.Stage(chip, i, p)
			if err := chip.Engines[i/o.Threads].SetArgs(i%o.Threads, w.EntryRegs, args); err != nil {
				return s, err
			}
		}
		sp.End()
		sp = obs.StartSpan("bench/chip_run")
		t0 := time.Now()
		st, err := chip.Run(o.BatchBudget)
		s.runWall += time.Since(t0)
		sp.End()
		if err != nil {
			return s, err
		}
		s.instrs += st.Instrs
		sp = obs.StartSpan("bench/collect")
		for i, p := range batch {
			s.digests[p.Flow] += flowFold(w.Collect(chip, i, p, st.Results[i]), p.Seq)
		}
		sp.End()
		batch = batch[:0]
	}
	s.wall = time.Since(start)
	return s, nil
}

// simCounts are the deterministic counts of one pass.
func simCounts(ws []*fleet.Workload, runs [][]*simRun) map[string]int64 {
	m := map[string]int64{}
	for i, w := range ws {
		for _, r := range runs[i] {
			m["ixp.instrs."+w.Name] += r.res.Agg.Instrs
			m["ixp.cycles."+w.Name] += r.res.Agg.Cycles
			m["delivered."+w.Name] += r.res.Delivered
		}
	}
	return m
}

// simP50 is the p50_ms of one pass.
func simP50(runs [][]*simRun) float64 {
	var p50s []float64
	for _, rs := range runs {
		var walls []float64
		for _, r := range rs {
			walls = append(walls, ms(r.wall))
		}
		p50s = append(p50s, median(walls))
	}
	return geomean(p50s...)
}
