package lp

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// assignment3 builds the 3x3 assignment LP (optimum 12, integral).
func assignment3() *Problem {
	cost := [3][3]float64{{4, 2, 8}, {4, 3, 7}, {3, 1, 6}}
	p := NewProblem()
	var v [3][3]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v[i][j] = p.AddCol(cost[i][j], 0, 1)
		}
	}
	for i := 0; i < 3; i++ {
		p.AddRow(1, 1, []int{v[i][0], v[i][1], v[i][2]}, []float64{1, 1, 1})
	}
	for j := 0; j < 3; j++ {
		p.AddRow(1, 1, []int{v[0][j], v[1][j], v[2][j]}, []float64{1, 1, 1})
	}
	return p
}

func TestRefactorFailureRecovers(t *testing.T) {
	plan, err := fault.Parse("lp/refactor_fail@1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	base := obs.TakeSnapshot()
	sol, err := assignment3().Solve(nil)
	if err != nil {
		t.Fatalf("solve with injected refactor failure: %v", err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-12) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 12", sol.Status, sol.Obj)
	}
	if d := obs.Since(base); d["lp/refactor_retries"] < 1 {
		t.Fatalf("lp/refactor_retries = %d, want >= 1 (deltas %v)", d["lp/refactor_retries"], d)
	}
}

func TestRefactorFailurePersistentIsTypedError(t *testing.T) {
	plan, err := fault.Parse("lp/refactor_fail@1:*")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	_, err = assignment3().Solve(nil)
	var se *StabilityError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *StabilityError", err)
	}
	if se.Stage != "refactor" {
		t.Fatalf("stage = %q, want refactor", se.Stage)
	}
	if !strings.Contains(se.Error(), "eta depth") {
		t.Fatalf("error %q does not report the FT-update depth", se.Error())
	}
}

// TestStabilityErrorReportsEtaDepth stacks update etas on a
// factorization (huge RefactorGap, so nothing collapses them), then
// makes the next refactorization fail and checks the error reports
// exactly the update depth it was trying to collapse.
func TestStabilityErrorReportsEtaDepth(t *testing.T) {
	p := buildAssignment(8, 3)
	var o Options
	o.fill(p)
	o.RefactorGap = 1 << 20
	s := newSimplex(p, &o)
	s.crashBasis()
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(true); err != nil {
		t.Fatal(err)
	}
	if st, err := s.run(false); err != nil || st != Optimal {
		t.Fatalf("phase 2: %v %v", st, err)
	}
	depth := len(s.updates)
	if depth == 0 {
		t.Fatal("no update etas stacked; the fixture no longer exercises the contract")
	}
	plan, err := fault.Parse("lp/refactor_fail@1:*")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	var se *StabilityError
	if rerr := s.refactor(); !errors.As(rerr, &se) {
		t.Fatalf("got %v, want *StabilityError", rerr)
	}
	if se.EtaDepth != depth {
		t.Fatalf("EtaDepth = %d, want %d (the depth being collapsed)", se.EtaDepth, depth)
	}
}

func TestPerturbationTriggersDriftResolve(t *testing.T) {
	plan, err := fault.Parse("lp/perturb@1=0.25")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	base := obs.TakeSnapshot()
	sol, err := assignment3().Solve(nil)
	if err != nil {
		t.Fatalf("solve with injected perturbation: %v", err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-12) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 12", sol.Status, sol.Obj)
	}
	for j := 0; j < 9; j++ {
		if x := sol.X[j]; x < -1e-6 || x > 1+1e-6 {
			t.Fatalf("re-solved point violates bounds: x[%d] = %v", j, x)
		}
	}
	if d := obs.Since(base); d["lp/drift_resolves"] < 1 {
		t.Fatalf("lp/drift_resolves = %d, want >= 1 (deltas %v)", d["lp/drift_resolves"], d)
	}
}

func TestSolveLatencyInjection(t *testing.T) {
	plan, err := fault.Parse("lp/solve_latency@1=30")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	start := time.Now()
	if _, err := assignment3().Solve(nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("solve took %v, want >= 25ms of injected latency", d)
	}
}

func TestDeadlineReturnsIterLimit(t *testing.T) {
	sol, err := assignment3().Solve(&Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want iteration-limit for an expired deadline", sol.Status)
	}
}

func TestDeadlineFarFutureSolvesNormally(t *testing.T) {
	sol, err := assignment3().Solve(&Options{Deadline: time.Now().Add(time.Hour)})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Obj-12) > 1e-6 {
		t.Fatalf("got %v / %v, want optimal 12", sol, err)
	}
}
