package repro

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/pktgen"
	"repro/internal/workloads"
)

// Workload descriptors shared by the tests and benches in this package.
// pkt and args are the one packet TestWorkloadsEndToEnd stages at
// SDRAM 0x100 and its entry arguments; oracle is the Go reference run
// on the same memory.
type workload struct {
	name   string
	src    string
	init   func(m *ixp.Machine)
	pkt    []uint32
	args   []uint32
	oracle func(sdram, args []uint32) uint32
}

var workloadTable = []workload{
	{"AES", workloads.AESSource, func(m *ixp.Machine) { workloads.InitAES(m.SRAM) },
		pktgen.BuildTCP(5, 64).Words, []uint32{0x100, 4},
		func(mem, a []uint32) uint32 { return workloads.AESOracle(mem, a[0], a[1]) }},
	{"Kasumi", workloads.KasumiSource, func(m *ixp.Machine) { workloads.InitKasumi(m.SRAM, m.Scratch) },
		pktgen.BuildTCP(6, 64).Words, []uint32{0x100, 8},
		func(mem, a []uint32) uint32 { return workloads.KasumiOracle(mem, a[0], a[1]) }},
	{"NAT", workloads.NATSource, nil,
		pktgen.BuildIPv6TCP(7, 64), []uint32{0x100, 0x8000, 8},
		func(mem, a []uint32) uint32 { return workloads.NATOracle(mem, a[0], a[1], a[2]) }},
}

// compileCache memoizes the expensive ILP compilations across the
// whole test binary.
var compileCache = struct {
	sync.Mutex
	m map[string]*nova.Compilation
}{m: map[string]*nova.Compilation{}}

func compileWorkload(tb testing.TB, w workload) *nova.Compilation {
	tb.Helper()
	compileCache.Lock()
	defer compileCache.Unlock()
	if c, ok := compileCache.m[w.name]; ok {
		return c
	}
	opts := nova.DefaultOptions()
	opts.MIP = &mip.Options{Time: 4 * time.Minute}
	c, err := nova.Compile(w.name+".nova", w.src, opts)
	if err != nil {
		tb.Fatalf("compile %s: %v", w.name, err)
	}
	compileCache.m[w.name] = c
	return c
}

// newMachine builds a simulator machine sized for the workloads.
func newMachine(threads int) *ixp.Machine {
	cfg := ixp.DefaultConfig()
	cfg.SRAMWords = 1 << 14
	cfg.SDRAMWords = 1 << 16
	cfg.Threads = threads
	return ixp.New(cfg)
}

// runPacket runs comp on a one-thread machine set up for w, with w's
// packet staged at SDRAM 0x100. It returns the machine and the run's
// statistics.
func runPacket(t *testing.T, comp *nova.Compilation, w workload) (*ixp.Machine, *ixp.Stats) {
	t.Helper()
	m := newMachine(1)
	if w.init != nil {
		w.init(m)
	}
	m.Load(comp.Asm)
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	copy(m.SDRAM[0x100:], w.pkt)
	if err := m.SetArgs(0, regs, w.args); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(100_000_000)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return m, st
}

// TestWorkloadsEndToEnd compiles all three benchmarks through the full
// pipeline, runs them on the simulator, and compares results and
// memory against the Go oracles. This is the paper's whole system
// exercised end to end; skipped with -short.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full ILP compilation takes minutes")
	}
	for _, w := range workloadTable {
		m, st := runPacket(t, compileWorkload(t, w), w)
		oracleMem := make([]uint32, len(m.SDRAM))
		copy(oracleMem[0x100:], w.pkt)
		if got, want := st.Results[0][0], w.oracle(oracleMem, w.args); got != want {
			t.Errorf("%s: result %#x, oracle %#x", w.name, got, want)
		}
		for i := range oracleMem {
			if m.SDRAM[i] != oracleMem[i] {
				t.Errorf("%s: sdram[%#x] = %#x, oracle %#x", w.name, i, m.SDRAM[i], oracleMem[i])
				break
			}
		}
		t.Logf("%s: ok — %d instrs executed, %d mem refs, %d cycles",
			w.name, st.Instrs, st.MemRefs, st.Cycles)
	}
}
