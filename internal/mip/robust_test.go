package mip

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/obs"
)

// smallKnapsack is a 0-1 model whose LP relaxation is fractional and
// whose rounded-down point is feasible: minimize -(x1+x2+x3) subject
// to x1+x2+x3 <= 2.2. Integer optimum -2.
func smallKnapsack() *lp.Problem {
	p := lp.NewProblem()
	var cols []int
	var vals []float64
	for j := 0; j < 3; j++ {
		cols = append(cols, p.AddCol(-1, 0, 1))
		vals = append(vals, 1)
	}
	p.AddRow(math.Inf(-1), 2.2, cols, vals)
	return p
}

func mustInstall(t *testing.T, spec string) {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	t.Cleanup(fault.Reset)
}

func TestWorkerPanicRecovers(t *testing.T) {
	mustInstall(t, "mip/worker_panic@1")
	base := obs.TakeSnapshot()
	res, err := Solve(smallKnapsack(), nil, &Options{Workers: 2})
	if err != nil {
		t.Fatalf("solve with injected worker panic: %v", err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-(-2)) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal -2", res.Status, res.Obj)
	}
	if d := obs.Since(base); d["mip/recovered_panics"] < 1 {
		t.Fatalf("mip/recovered_panics = %d, want >= 1", d["mip/recovered_panics"])
	}
}

func TestWorkerPanicTwiceDegradesToSerialAndRecovers(t *testing.T) {
	mustInstall(t, "mip/worker_panic@1:2")
	base := obs.TakeSnapshot()
	res, err := Solve(smallKnapsack(), nil, &Options{Workers: 4})
	if err != nil {
		t.Fatalf("solve with double worker panic: %v", err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-(-2)) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal -2", res.Status, res.Obj)
	}
	if d := obs.Since(base); d["mip/recovered_panics"] < 2 {
		t.Fatalf("mip/recovered_panics = %d, want >= 2", d["mip/recovered_panics"])
	}
}

func TestPanicThroughAllRetriesIsDegraded(t *testing.T) {
	mustInstall(t, "mip/worker_panic@1:*")
	res, err := Solve(smallKnapsack(), nil, &Options{Workers: 2})
	if err != nil {
		t.Fatalf("lost subtrees must degrade, not error: %v", err)
	}
	if res.Status != Degraded {
		t.Fatalf("status = %v, want degraded (root subtree lost)", res.Status)
	}
}

func TestNodeStabilityErrorIsDegradedNotFatal(t *testing.T) {
	// Hit 1 (the root LP refactor) passes; every later refactor fails,
	// so each node LP exhausts its cold-restart retry and surfaces a
	// StabilityError the tree must absorb as a lost subtree.
	mustInstall(t, "lp/refactor_fail@2:*")
	res, err := Solve(smallKnapsack(), nil, &Options{Workers: 1})
	if err != nil {
		t.Fatalf("node stability errors must degrade, not error: %v", err)
	}
	if res.Status != Degraded {
		t.Fatalf("status = %v, want degraded", res.Status)
	}
	// The root rounding already found the integer optimum; a degraded
	// search must still surface that incumbent.
	if res.X == nil || math.Abs(res.Obj-(-2)) > 1e-6 {
		t.Fatalf("degraded result lost the incumbent: X=%v obj=%v", res.X, res.Obj)
	}
}

func TestHeuristicPanicIsAMiss(t *testing.T) {
	mustInstall(t, "mip/heuristic_err@1:*")
	base := obs.TakeSnapshot()
	heur := func(x []float64) ([]float64, bool) { return x, true }
	// The root LP is fractional, so the tree branches — the heuristic
	// only runs at fractional nodes.
	res, err := Solve(smallKnapsack(), nil, &Options{Workers: 1, Heuristic: heur})
	if err != nil {
		t.Fatalf("solve with panicking heuristic: %v", err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-(-2)) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal -2", res.Status, res.Obj)
	}
	if d := obs.Since(base); d["mip/heuristic_panics"] < 1 {
		t.Fatalf("mip/heuristic_panics = %d, want >= 1", d["mip/heuristic_panics"])
	}
}

func TestNodeLimitReturnsIncumbent(t *testing.T) {
	res, err := Solve(smallKnapsack(), nil, &Options{Workers: 1, MaxNodes: 1})
	if err != nil {
		t.Fatalf("node-limited solve: %v", err)
	}
	if res.Status != NodeLimit {
		t.Fatalf("status = %v, want node-limit", res.Status)
	}
	if res.X == nil || math.Abs(res.Obj-(-2)) > 1e-6 {
		t.Fatalf("node-limited solve lost the rounding incumbent: X=%v obj=%v", res.X, res.Obj)
	}
}

func TestRootIterLimitReturnsStatusNotError(t *testing.T) {
	// A 1ns budget expires before the root LP's first pivot batch, so
	// the root solve comes back IterLimit; the solver must report the
	// halt as a status — never as an error — and salvage whatever
	// incumbent the partial point rounds to (here the trivial all-zero
	// point, which is feasible for the knapsack).
	p := smallKnapsack()
	res, err := Solve(p, nil, &Options{Workers: 1, Time: time.Nanosecond})
	if err != nil {
		t.Fatalf("budget-starved root must not error: %v", err)
	}
	if res.Status != TimeLimit {
		t.Fatalf("status = %v, want time-limit", res.Status)
	}
	if res.X != nil && !feasible(p, allInteger(p), res.X, 1e-6, nil) {
		t.Fatalf("salvaged incumbent is infeasible: %v", res.X)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(smallKnapsack(), nil, &Options{Workers: 1, Ctx: ctx})
	if err != nil {
		t.Fatalf("cancelled solve must not error: %v", err)
	}
	if res.Status != Cancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
}

func TestMidSolveCancellation(t *testing.T) {
	// Slow every LP by 5ms so a 40ms context expires mid-search on a
	// model too large to finish that fast.
	mustInstall(t, "lp/solve_latency@1:*=5")
	p := lp.NewProblem()
	var cols []int
	var vals []float64
	for j := 0; j < 24; j++ {
		cols = append(cols, p.AddCol(-1-0.01*float64(j%7), 0, 1))
		vals = append(vals, 1)
	}
	p.AddRow(math.Inf(-1), 11.5, cols, vals)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	res, err := Solve(p, nil, &Options{Workers: 2, Ctx: ctx})
	if err != nil {
		t.Fatalf("cancelled solve must not error: %v", err)
	}
	if res.Status != Cancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
}
