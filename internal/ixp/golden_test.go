package ixp_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/pktgen"
)

// goldenStats is one workload's ixp.Stats summed over its batches, plus
// a digest of the halt Results (thread order, word order) and of the
// workload's observable output.
type goldenStats struct {
	Cycles, Instrs, MemRefs, Swaps             int64
	SRAMRefs, SDRAMRefs, ScratchRefs, HashRefs int64
	FIFORefs, StallCycles, PortWaitCycles      int64
	Results                                    int
	ResultsDigest, OutputDigest                uint64
}

func (g *goldenStats) add(st *ixp.Stats) {
	g.Cycles += st.Cycles
	g.Instrs += st.Instrs
	g.MemRefs += st.MemRefs
	g.Swaps += st.Swaps
	g.SRAMRefs += st.SRAMRefs
	g.SDRAMRefs += st.SDRAMRefs
	g.ScratchRefs += st.ScratchRefs
	g.HashRefs += st.HashRefs
	g.FIFORefs += st.FIFORefs
	g.StallCycles += st.StallCycles
	g.PortWaitCycles += st.PortWaitCycles
	g.Results += len(st.Results)
	for _, r := range st.Results {
		g.ResultsDigest = fleet.Digest(g.ResultsDigest, r)
		g.ResultsDigest = fleet.Digest(g.ResultsDigest, []uint32{uint32(len(r))})
	}
}

// chipStatsGolden holds the expected figures (zero fields omitted),
// recorded by running this test against the lockstep scheduler (every
// engine re-selected before every quantum) that the run-ahead
// scheduler replaced. A scheduling change that reorders a memory-port
// or hash-unit grant moves at least one of them.
var chipStatsGolden = map[string]goldenStats{
	"aes":        {Cycles: 103335, Instrs: 366768, MemRefs: 50112, Swaps: 49806, SRAMRefs: 49248, SDRAMRefs: 864, StallCycles: 185694, PortWaitCycles: 878055, Results: 72, ResultsDigest: 0x7728426071069ed8, OutputDigest: 0x350231b8906f9023},
	"kasumi":     {Cycles: 133830, Instrs: 663696, MemRefs: 61344, Swaps: 60747, SRAMRefs: 27648, SDRAMRefs: 1440, ScratchRefs: 32256, StallCycles: 39321, PortWaitCycles: 58308, Results: 72, ResultsDigest: 0x34ab081009c8192b, OutputDigest: 0xb29a6a7d93982155},
	"nat":        {Cycles: 6414, Instrs: 14616, MemRefs: 1512, Swaps: 918, SDRAMRefs: 1368, HashRefs: 144, StallCycles: 18198, PortWaitCycles: 149067, Results: 72, ResultsDigest: 0xd62377765e760018, OutputDigest: 0x99c420e64959b5ba},
	"sum":        {Cycles: 504, Instrs: 792, MemRefs: 216, Swaps: 162, SRAMRefs: 72, SDRAMRefs: 144, StallCycles: 1896, PortWaitCycles: 4944, Results: 72, ResultsDigest: 0x48d6e7d6793e474b, OutputDigest: 0xf71f0a58b9f8fa98},
	"contention": {Cycles: 87, Instrs: 336, MemRefs: 48, Swaps: 42, SRAMRefs: 48, StallCycles: 114, PortWaitCycles: 768, Results: 24, ResultsDigest: 0xbfd9fc64f7f64705, OutputDigest: 0x94a77bd98275820b},
}

var goldenWL = struct {
	sync.Mutex
	m map[string]*fleet.Workload
}{m: map[string]*fleet.Workload{}}

// goldenWorkload compiles a fleet workload once per test binary, with
// one MIP worker so the allocation (and so the program) is the same on
// every run.
func goldenWorkload(tb testing.TB, name string) *fleet.Workload {
	tb.Helper()
	goldenWL.Lock()
	defer goldenWL.Unlock()
	if w, ok := goldenWL.m[name]; ok {
		return w
	}
	w, err := fleet.Compile(name, &mip.Options{Workers: 1})
	if err != nil {
		tb.Fatalf("compile %s: %v", name, err)
	}
	goldenWL.m[name] = w
	return w
}

// runBatches runs batches full batches of the workload's stream g on
// one chip, the way the fleet worker does: stage every slot
// engine-major, Load, Run, Collect.
func runBatches(tb testing.TB, w *fleet.Workload, chip *ixp.Chip, g *pktgen.FlowGen, batches int) goldenStats {
	tb.Helper()
	var gs goldenStats
	for b := 0; b < batches; b++ {
		sb := stageBatch(w, chip, g)
		st, err := sb.run(w, chip)
		if err != nil {
			tb.Fatalf("%s batch %d: %v", w.Name, b, err)
		}
		if len(st.Results) != len(sb.pkts) {
			tb.Fatalf("%s batch %d: %d results for %d slots", w.Name, b, len(st.Results), len(sb.pkts))
		}
		gs.add(st)
		for i, p := range sb.pkts {
			gs.OutputDigest += w.Collect(chip, i, p, st.Results[i])
		}
	}
	return gs
}

// newWorkloadChip builds the fleet's default 6-engine × 4-thread chip
// with the workload's tables loaded.
func newWorkloadChip(w *fleet.Workload) *ixp.Chip {
	cfg := fleet.Options{Threads: 4}.MachineConfig()
	chip := ixp.NewChip(cfg, ixp.NumEngines)
	if w.Init != nil {
		w.Init(chip)
	}
	return chip
}

// TestChipStatsGolden: the chip scheduler is exact. Every ixp.Stats
// field and every halt result of three 24-slot batches per workload
// (aes, kasumi, nat, sum), and of the SRAM-contention kernel on 6
// engines, equals the figures the lockstep scheduler produced.
func TestChipStatsGolden(t *testing.T) {
	got := map[string]goldenStats{}
	for _, name := range []string{"aes", "kasumi", "nat", "sum"} {
		w := goldenWorkload(t, name)
		g := pktgen.NewFlowGen(w.Kind, 1, 256, 64)
		got[name] = runBatches(t, w, newWorkloadChip(w), g, 3)
	}
	got["contention"] = contentionStats(t)
	if got["contention"].PortWaitCycles == 0 {
		t.Error("contention kernel saw no port wait: the case no longer exercises arbitration")
	}
	for name, want := range chipStatsGolden {
		if got[name] != want {
			t.Errorf("%s: stats differ from the lockstep scheduler\n got %#v\nwant %#v", name, got[name], want)
		}
	}
}

// contentionStats runs TestChipContention's kernel on 6 engines × 4
// threads, every thread on its own 32-word SRAM block.
func contentionStats(t *testing.T) goldenStats {
	t.Helper()
	comp, err := nova.Compile("chip.nova", ixp.ChipProgram, nova.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ixp.DefaultConfig()
	cfg.SRAMWords = 1 << 12
	cfg.SDRAMWords = 1 << 10
	chip := ixp.NewChip(cfg, ixp.NumEngines)
	sram := chip.SRAM()
	for i := range sram {
		sram[i] = uint32(i * 7)
	}
	chip.Load(comp.Asm)
	for e := range chip.Engines {
		for th := 0; th < cfg.Threads; th++ {
			base := uint32((e*cfg.Threads + th) * 32)
			if err := chip.Engines[e].SetArgs(th, regs, []uint32{base}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := chip.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var gs goldenStats
	gs.add(st)
	gs.OutputDigest = fleet.Digest(fleet.DigestSeed, sram)
	return gs
}

// stagedBatch is one full batch staged on a chip: the packets and each
// slot's entry arguments, so it can be re-run without staging again.
type stagedBatch struct {
	pkts []*pktgen.Packet
	args [][]uint32
}

func stageBatch(w *fleet.Workload, chip *ixp.Chip, g *pktgen.FlowGen) *stagedBatch {
	slots := len(chip.Engines) * chip.Cfg.Threads
	sb := &stagedBatch{pkts: make([]*pktgen.Packet, slots), args: make([][]uint32, slots)}
	for i := range sb.pkts {
		sb.pkts[i] = g.Next()
		sb.args[i] = w.Stage(chip, i, sb.pkts[i])
	}
	return sb
}

// run loads the program, starts every slot and runs the chip.
func (sb *stagedBatch) run(w *fleet.Workload, chip *ixp.Chip) (*ixp.Stats, error) {
	threads := chip.Cfg.Threads
	chip.Load(w.Prog)
	for i, a := range sb.args {
		if err := chip.Engines[i/threads].SetArgs(i%threads, w.EntryRegs, a); err != nil {
			return nil, err
		}
	}
	return chip.Run(200_000_000)
}

// chipRunAllocs is the allocation count of one Chip.Run of a full
// 6 × 4 batch on a warmed chip: the Stats, its Results slice, the
// engines' pending events, and one halt-result slice per started
// thread.
const chipRunAllocs = 27

// TestChipRunAllocs: Chip.Run on a warmed chip allocates a fixed
// number of times, however many instructions the batch executes (NAT
// at 64 B and at 2 KB payloads).
func TestChipRunAllocs(t *testing.T) {
	w := goldenWorkload(t, "nat")
	chip := newWorkloadChip(w)
	var instrs []int64
	for _, payload := range []int{64, 2048} {
		sb := stageBatch(w, chip, pktgen.NewFlowGen(w.Kind, 1, 256, payload))
		st, err := sb.run(w, chip) // warm
		if err != nil {
			t.Fatal(err)
		}
		instrs = append(instrs, st.Instrs)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sb.run(w, chip); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != chipRunAllocs {
			t.Errorf("payload %d B (%d instrs): %.0f allocs per Chip.Run, want %d", payload, st.Instrs, allocs, chipRunAllocs)
		}
	}
	if instrs[1] < 4*instrs[0] {
		t.Fatalf("payloads barely change the instruction count: %v", instrs)
	}
}

// BenchmarkChipRun times Chip.Run on one staged 24-slot AES batch (64 B
// packets; each run re-encrypts the previous run's output) and reports
// host time per simulated instruction and heap allocations per run.
func BenchmarkChipRun(b *testing.B) {
	w := goldenWorkload(b, "aes")
	chip := newWorkloadChip(w)
	sb := stageBatch(w, chip, pktgen.NewFlowGen(w.Kind, 1, 256, 64))
	var instrs int64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := sb.run(w, chip)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N), "allocs/op")
}
