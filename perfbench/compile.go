package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ixp"
	"repro/internal/mir"
	"repro/internal/nova"
	"repro/internal/obs"
	"repro/internal/pktgen"
	"repro/internal/workloads"
)

// The compile workload is the novac user's cost: a closed loop, one
// cold nova.Compile at a time, of AES, Kasumi and NAT with default
// options and one MIP worker (so the lp/ and mip/ counters repeat
// exactly). Each compiled program then runs a 24-packet check batch on
// one 6-engine chip, outside the timed window, and must match the Go
// oracles bit for bit.

// compileMaxResidualPct is the stated bound on the share of compile
// time that no named layer accounts for: the benchmark's bench/compile
// span and the nova.Compile facade around the phases.
const compileMaxResidualPct = 2.0

// checkPackets is the check batch: one packet per thread slot of a
// 6-engine, 4-thread chip.
const checkPackets = 24

// checkProgram is one paper program with its check batch: the packets,
// the chip its tables are loaded into, and the oracle's outputs.
type checkProgram struct {
	name    string
	src     string
	chip    *ixp.Chip
	packets []*pktgen.Packet
	want    [][]uint32 // per packet: output words the oracle wrote
	ret     []uint32   // per packet: the oracle's result word
}

// compileRun is one compile of one program: the timings and counts the
// workload reports and compares.
type compileRun struct {
	ok        bool // compiled, and the check batch matched the oracles
	seconds   float64
	cycles    int64 // check batch chip cycles
	deltas    obs.Snapshot
	moves     int
	spills    int
	vars      int
	rows      int
	codeWords int
	mirInstrs int
	mir       *mir.Program
	from, to  float64 // bench/compile span window on the trace, ms
}

func runCompile(b *bench) error {
	opts := nova.DefaultOptions()
	opts.Workers = 1
	progs, setup, err := medianSetup(9, func() ([]*checkProgram, error) { return compileSetup(b.seed, opts) })
	if err != nil {
		return err
	}

	// round compiles every program once, in order, and checks each.
	var rec *obs.Recorder
	round := func() []*compileRun {
		runs := make([]*compileRun, len(progs))
		for i, p := range progs {
			runs[i] = compileOne(b, p, opts, rec)
		}
		return runs
	}
	if b.trace {
		untraced := round()
		rec = obs.Start("perfbench compile")
		traced := round()
		// Time Model.Canonicalize on the model a NAT compile solves.
		if traced[2].mir == nil {
			return fmt.Errorf("the traced NAT compile failed")
		}
		natModel, err := core.BuildModel(traced[2].mir, opts.Alloc)
		if err != nil {
			return fmt.Errorf("rebuilding the NAT model: %w", err)
		}
		sp := obs.StartSpan("bench/canonicalize")
		t0 := time.Now()
		natModel.Canonicalize()
		canonMS := ms(time.Since(t0))
		sp.End()
		deltas := rec.CounterDeltas()
		spans, err := stopTrace(b, rec)
		if err != nil {
			return err
		}
		b.set("model.canonicalize_ms", canonMS)
		reportCompileLayers(b, progs, traced, spans, deltas)
		b.set("trace.overhead_pct", 100*(compileP50(traced)/compileP50(untraced)-1))
		b.det = compileCounts(progs, traced)
		b.compareCounts("the untraced pass", compileCounts(progs, untraced), b.det)
		return nil
	}

	start := time.Now()
	var rounds [][]*compileRun
	for len(rounds) < 2 || time.Since(start).Seconds() < b.seconds {
		rounds = append(rounds, round())
	}
	first := compileCounts(progs, rounds[0])
	for _, r := range rounds[1:] {
		b.compareCounts("the first round", first, compileCounts(progs, r))
	}
	b.det = first
	var medians, tails []float64
	for i := range progs {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, r[i].seconds*1e3)
		}
		medians = append(medians, median(xs))
		tails = append(tails, tail(xs))
	}
	b.set("setup_s", setup)
	b.set("p50_ms", geomean(medians...))
	b.set("tail_ms", geomean(tails...))
	n, total := 0, 0.0
	for _, r := range rounds {
		for _, c := range r {
			if c.ok {
				n++
			}
			total += c.seconds
		}
	}
	b.set("goodput_per_s", float64(n)/total)
	return nil
}

// compileSetup builds each program's check batch: its packets, a chip
// with the program's tables loaded, and the oracle's expected outputs.
// It then compiles a small generated program, so the compiler's code
// and heap are warm before the first timed compile.
func compileSetup(seed int64, opts nova.Options) ([]*checkProgram, error) {
	cfg := fleet.Options{}.Normalize().MachineConfig()
	var progs []*checkProgram
	for _, name := range compilePrograms {
		p := &checkProgram{name: name, chip: ixp.NewChip(cfg, ixp.NumEngines)}
		kind := pktgen.KindTCP4
		switch name {
		case "aes":
			p.src = workloads.AESSource
			workloads.InitAES(p.chip.SRAM())
		case "kasumi":
			p.src = workloads.KasumiSource
			workloads.InitKasumi(p.chip.SRAM(), p.chip.Scratch())
		case "nat":
			p.src = workloads.NATSource
			kind = pktgen.KindIPv6
		}
		g := pktgen.NewFlowGen(kind, seed, checkPackets, 64)
		for i := 0; i < checkPackets; i++ {
			pk := g.Next()
			out, ret := oracle(name, pk)
			p.packets = append(p.packets, pk)
			p.want = append(p.want, out)
			p.ret = append(p.ret, ret)
		}
		progs = append(progs, p)
	}
	if err := warmUp(); err != nil {
		return nil, err
	}
	return progs, nil
}

// warmUp compiles a small generated program, so the compiler's code and
// heap are warm before a timed compile.
func warmUp() error {
	opts := nova.DefaultOptions()
	opts.Workers = 1
	warm := genProgram(rand.New(rand.NewSource(servePoolSeed)), 6)
	if _, err := nova.Compile("warmup.nova", warm, opts); err != nil {
		return fmt.Errorf("warm-up compile: %w", err)
	}
	return nil
}

// compileOne cold-compiles p, times it, and runs the check batch.
func compileOne(b *bench, p *checkProgram, opts nova.Options, rec *obs.Recorder) *compileRun {
	r := &compileRun{}
	failed := b.failed
	defer func() { r.ok = b.failed == failed }()
	base := obs.TakeSnapshot()
	if rec != nil {
		r.from = ms(rec.Duration())
	}
	sp := obs.StartSpan("bench/compile")
	t0 := time.Now()
	comp, err := nova.Compile(p.name+".nova", p.src, opts)
	r.seconds = time.Since(t0).Seconds()
	sp.End()
	if rec != nil {
		r.to = ms(rec.Duration())
	}
	r.deltas = obs.Since(base)
	if !b.check(err == nil, "compile %s: %v", p.name, err) {
		return r
	}
	r.moves, r.spills = comp.Alloc.NumMoves(), comp.Alloc.Spills
	r.vars, r.rows = comp.Alloc.ModelStats.Vars, comp.Alloc.ModelStats.Constraints
	r.codeWords = comp.Asm.CodeWords()
	r.mir = comp.MIR
	for _, blk := range comp.MIR.Blocks {
		r.mirInstrs += len(blk.Instrs)
	}
	regs, err := comp.EntryRegs()
	if !b.check(err == nil, "%s entry registers: %v", p.name, err) {
		return r
	}
	r.cycles = runCheckBatch(b, p, comp.Asm, regs)
	return r
}

// runCheckBatch runs the check batch on p's chip and compares every
// packet's output words and result with the oracle's. It returns the
// chip cycles the batch took.
func runCheckBatch(b *bench, p *checkProgram, prog *asm.Program, regs []asm.Reg) int64 {
	chip := p.chip
	chip.Load(prog)
	threads := chip.Cfg.Threads
	for i, pk := range p.packets {
		args := stage(p.name, chip, i, pk)
		if err := chip.Engines[i/threads].SetArgs(i%threads, regs, args); err != nil {
			b.check(false, "%s staging packet %d: %v", p.name, i, err)
			return 0
		}
	}
	st, err := chip.Run(200_000_000)
	if !b.check(err == nil, "%s check batch: %v", p.name, err) {
		return 0
	}
	for i, pk := range p.packets {
		out := output(p.name, chip, i, pk)
		ok := len(st.Results) > i && len(st.Results[i]) == 1 && st.Results[i][0] == p.ret[i] &&
			slices.Equal(out, p.want[i])
		b.check(ok, "%s check packet %d differs from the oracle", p.name, i)
	}
	return st.Cycles
}

// Per-slot SDRAM layout of the check batch, the one the fleet adapters
// use: TCP packets are transformed in place at tcpBase + slot*tcpStride;
// NAT reads IPv6 at natSrc + slot*natStride and writes IPv4 at natDst +
// slot*natStride.
const (
	tcpBase   = 0x100
	tcpStride = 0x400
	natSrc    = 0x100
	natDst    = 0x20000
	natStride = 0x800
)

func natChunks(pk *pktgen.Packet) uint32 { return uint32((pk.PayloadBytes + 7) / 8) }

// stage writes pk into slot's SDRAM and returns the entry arguments.
func stage(name string, chip *ixp.Chip, slot int, pk *pktgen.Packet) []uint32 {
	if name == "nat" {
		src := uint32(natSrc + slot*natStride)
		copy(chip.SDRAM()[src:], pk.Words)
		return []uint32{src, uint32(natDst + slot*natStride), natChunks(pk)}
	}
	base := uint32(tcpBase + slot*tcpStride)
	copy(chip.SDRAM()[base:], pk.Words)
	blockBytes := 16
	if name == "kasumi" {
		blockBytes = 8
	}
	return []uint32{base, uint32(pk.PayloadBytes / blockBytes)}
}

// output returns the words the program wrote for slot's packet.
func output(name string, chip *ixp.Chip, slot int, pk *pktgen.Packet) []uint32 {
	if name == "nat" {
		dst := natDst + slot*natStride
		return chip.SDRAM()[dst : dst+6+2*int(natChunks(pk))]
	}
	base := tcpBase + slot*tcpStride
	return chip.SDRAM()[base : base+len(pk.Words)]
}

// oracle applies the Go reference of the named program to a packet and
// returns the words the program should write and its result word.
func oracle(name string, pk *pktgen.Packet) ([]uint32, uint32) {
	switch name {
	case "aes":
		w := append([]uint32(nil), pk.Words...)
		ret := workloads.AESOracle(w, 0, uint32(pk.PayloadBytes/16))
		return w, ret
	case "kasumi":
		w := append([]uint32(nil), pk.Words...)
		ret := workloads.KasumiOracle(w, 0, uint32(pk.PayloadBytes/8))
		return w, ret
	}
	n := natChunks(pk)
	dst := uint32(len(pk.Words))
	mem := make([]uint32, int(dst)+6+2*int(n))
	copy(mem, pk.Words)
	ret := workloads.NATOracle(mem, 0, dst, n)
	return mem[dst:], ret
}

// compileCounts are the deterministic counts of one round, per program.
func compileCounts(progs []*checkProgram, runs []*compileRun) map[string]int64 {
	m := map[string]int64{}
	for i, p := range progs {
		r := runs[i]
		m["lp.iterations."+p.name] = r.deltas["lp/iterations"]
		m["mip.nodes."+p.name] = r.deltas["mip/nodes"]
		m["check_cycles."+p.name] = r.cycles
		m["core.moves."+p.name] = int64(r.moves)
		m["core.spills."+p.name] = int64(r.spills)
		m["asm.code_words."+p.name] = int64(r.codeWords)
	}
	return m
}

// compileP50 is the p50_ms of one round: the geometric mean of its
// compile times.
func compileP50(runs []*compileRun) float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.seconds*1e3)
	}
	return geomean(xs...)
}

// reportCompileLayers sets the per-layer metrics of the traced round:
// totals over the three compiles, and per program the metrics in
// perProgram.
func reportCompileLayers(b *bench, progs []*checkProgram, runs []*compileRun, spans []span, deltas obs.Snapshot) {
	var inCompiles []span
	e2e := 0.0
	var total compileRun
	for i, p := range progs {
		r := runs[i]
		mine := within(spans, r.from, r.to)
		inCompiles = append(inCompiles, mine...)
		e2e += r.seconds * 1e3
		sfx := "." + p.name
		setSpanMetrics(b, spanTotals(mine), sfx)
		setCounterMetrics(b, r.deltas, sfx)
		b.set("compile_s"+sfx, r.seconds)
		b.set("cycles_per_packet"+sfx, float64(r.cycles)/checkPackets)
		b.set("model.vars"+sfx, float64(r.vars))
		b.set("model.rows"+sfx, float64(r.rows))
		b.set("core.moves"+sfx, float64(r.moves))
		b.set("core.spills"+sfx, float64(r.spills))
		b.set("asm.code_words"+sfx, float64(r.codeWords))
		total.vars += r.vars
		total.rows += r.rows
		total.moves += r.moves
		total.spills += r.spills
		total.codeWords += r.codeWords
		total.mirInstrs += r.mirInstrs
	}
	setSpanMetrics(b, spanTotals(inCompiles), "")
	setCounterMetrics(b, deltas, "")
	b.set("model.vars", float64(total.vars))
	b.set("model.rows", float64(total.rows))
	b.set("core.moves", float64(total.moves))
	b.set("core.spills", float64(total.spills))
	b.set("asm.code_words", float64(total.codeWords))
	b.set("isel.mir_instrs", float64(total.mirInstrs))
	reportLayers(b, selfTimes(inCompiles, "bench/compile", "bench/compile"), e2e, compileMaxResidualPct)
}
