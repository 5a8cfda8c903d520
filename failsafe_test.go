package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// natRun compiles the NAT workload with the given allocator options,
// runs TestWorkloadsEndToEnd's NAT packet through the IXP simulator,
// and returns the compilation, the checksum result, the rewritten
// SDRAM image, and the cycle count.
func natRun(t *testing.T, alloc func(*nova.Options)) (*nova.Compilation, uint32, []uint32, int64) {
	t.Helper()
	opts := nova.DefaultOptions()
	opts.MIP = &mip.Options{Time: 2 * time.Minute}
	if alloc != nil {
		alloc(&opts)
	}
	comp, err := nova.Compile("nat.nova", workloads.NATSource, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, st := runPacket(t, comp, workloadTable[2])
	return comp, st.Results[0][0], append([]uint32(nil), m.SDRAM...), st.Cycles
}

// TestFailsafePipelineEndToEnd is the PR's acceptance check (DESIGN.md
// §10): with fault injection forcing a worker panic AND an LP refactor
// failure, and separately with the ILP replaced by the greedy fallback
// allocator, the compiled NAT workload must produce exactly the packet
// results of the clean ILP compile — the fallback merely pays more
// cycles.
func TestFailsafePipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("three full compiles of the NAT workload")
	}
	_, wantRet, wantMem, ilpCycles := natRun(t, nil)

	// Faults on the ILP path: one injected worker panic and one
	// injected refactor failure, both recovered inside the solvers.
	plan, err := fault.Parse("mip/worker_panic@1,lp/refactor_fail@1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	base := obs.TakeSnapshot()
	_, gotRet, gotMem, _ := natRun(t, nil)
	fault.Reset()
	d := obs.Since(base)
	if d["mip/recovered_panics"] < 1 || d["lp/refactor_retries"] < 1 {
		t.Fatalf("fault recovery counters missing: recovered_panics=%d refactor_retries=%d (%v)",
			d["mip/recovered_panics"], d["lp/refactor_retries"], d)
	}
	if gotRet != wantRet {
		t.Fatalf("fault-injected compile result %#x, ILP result %#x", gotRet, wantRet)
	}
	for i := range wantMem {
		if gotMem[i] != wantMem[i] {
			t.Fatalf("fault-injected compile sdram[%#x] = %#x, ILP %#x", i, gotMem[i], wantMem[i])
		}
	}

	// Greedy fallback path: identical packet semantics, more cycles.
	base = obs.TakeSnapshot()
	_, fbRet, fbMem, fbCycles := natRun(t, func(o *nova.Options) { o.Alloc.Fallback = core.FallbackForce })
	if d := obs.Since(base); d["alloc/fallback"] < 1 {
		t.Fatalf("alloc/fallback = %d, want >= 1", d["alloc/fallback"])
	}
	if fbRet != wantRet {
		t.Fatalf("fallback compile result %#x, ILP result %#x", fbRet, wantRet)
	}
	for i := range wantMem {
		if fbMem[i] != wantMem[i] {
			t.Fatalf("fallback compile sdram[%#x] = %#x, ILP %#x", i, fbMem[i], wantMem[i])
		}
	}
	if fbCycles < ilpCycles {
		t.Fatalf("fallback cycles %d < ILP cycles %d; greedy allocation should not be faster", fbCycles, ilpCycles)
	}
	t.Logf("NAT: ILP %d cycles, greedy fallback %d cycles (+%.1f%%)",
		ilpCycles, fbCycles, 100*float64(fbCycles-ilpCycles)/float64(ilpCycles))
}

// TestFallbackForcedSlowExact injects LP solve latency so the exact
// solver cannot finish inside the budget: under the default
// FallbackAuto policy the greedy allocator must take over, the result
// must be honestly unproven (never Optimal), and the packet output
// must still be bit-identical to the clean ILP compile.
func TestFallbackForcedSlowExact(t *testing.T) {
	if testing.Short() {
		t.Skip("two full compiles of the NAT workload")
	}
	_, wantRet, wantMem, _ := natRun(t, nil)

	// 3 s of injected latency on every LP solve against a 1.5 s solve
	// budget: the exact solver halts with no incumbent.
	plan, err := fault.Parse("lp/solve_latency@1:*=3000")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	base := obs.TakeSnapshot()
	comp, gotRet, gotMem, _ := natRun(t, func(o *nova.Options) {
		o.MIP = &mip.Options{Time: 1500 * time.Millisecond}
	})
	fault.Reset()
	if d := obs.Since(base); d["alloc/fallback"] < 1 {
		t.Fatalf("alloc/fallback = %d, want >= 1 (%v)", d["alloc/fallback"], d)
	}
	if comp.Alloc.MIP.Status == mip.Optimal {
		t.Fatal("forced-slow compile claims Optimal; a fallback allocation is unproven")
	}
	if !comp.Alloc.Fallback {
		t.Fatal("forced-slow compile not flagged as fallback")
	}
	if gotRet != wantRet {
		t.Fatalf("forced-slow compile result %#x, ILP result %#x", gotRet, wantRet)
	}
	for i := range wantMem {
		if gotMem[i] != wantMem[i] {
			t.Fatalf("forced-slow compile sdram[%#x] = %#x, ILP %#x", i, gotMem[i], wantMem[i])
		}
	}
}
