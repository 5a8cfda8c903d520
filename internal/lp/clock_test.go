package lp

import (
	"math"
	"math/rand"
	"testing"
)

// clockSolve solves p under o on a fresh workspace and returns the
// solution with the workspace, whose tallies (refactors, cadence,
// iter) the solve left behind.
func clockSolve(t *testing.T, p *Problem, o Options) (*Solution, *simplex) {
	t.Helper()
	o.fill(p)
	s := newSimplex(p, &o)
	sol, err := s.solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	return sol, s
}

// TestRefactorClockDeterministic solves allocator-shaped LPs twice
// under the work clock and requires the same refactorizations,
// iterations, cadence and bits both times: the clock counts work, not
// time. It also requires the clock to have fired mid-solve, and an
// explicit RefactorGap to cap every update file it collapsed.
func TestRefactorClockDeterministic(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := allocatorLP(rand.New(rand.NewSource(seed)), 300, 400, false)
		a, s := clockSolve(t, p, Options{})
		b, u := clockSolve(t, p.Clone(), Options{})
		if s.refactors != u.refactors || s.iter != u.iter || s.cadence != u.cadence {
			t.Fatalf("seed %d: refactorizations %d/%d, iterations %d/%d, cadence %d/%d across identical solves",
				seed, s.refactors, u.refactors, s.iter, u.iter, s.cadence, u.cadence)
		}
		if !sameBits(a.X, b.X) || math.Float64bits(a.Obj) != math.Float64bits(b.Obj) {
			t.Fatalf("seed %d: identical solves differ in their bits", seed)
		}
		if s.refactors < 2 {
			t.Fatalf("seed %d: %d refactorizations in %d iterations; the clock never fired",
				seed, s.refactors, s.iter)
		}
		_, g := clockSolve(t, p.Clone(), Options{RefactorGap: 16})
		if g.cadence > 16*g.refactors {
			t.Fatalf("seed %d: RefactorGap 16 collapsed %d etas in %d refactorizations",
				seed, g.cadence, g.refactors)
		}
		t.Logf("seed %d: %d iterations, %d refactorizations by the clock (mean depth %.1f), %d at RefactorGap 16",
			seed, s.iter, s.refactors, float64(s.cadence)/float64(s.refactors-1), g.refactors)
	}
}

// TestAdoptionResumesClock checks adoptFactor against the clock a
// snapshot carries: one whose update work has reached its build work
// is refused, and one with work left is adopted, resuming the clock
// from the snapshot's update work plus one unit per index link of the
// re-linked update file.
func TestAdoptionResumesClock(t *testing.T) {
	p := buildAssignment(12, 5)
	sol, err := p.Solve(&Options{RefactorGap: 1 << 20})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	f := sol.Basis.factor
	if f == nil || len(f.updates) == 0 || f.buildWork == 0 {
		t.Fatal("the snapshot carries no update file; the fixture no longer exercises the clock")
	}
	adopt := func(updateWork int) (*simplex, bool) {
		g := *f
		g.updateWork = updateWork
		b := &Basis{State: sol.Basis.State, Order: sol.Basis.Order, factor: &g}
		q := p.Clone()
		var o Options
		o.fill(q)
		s := newSimplex(q, &o)
		if !s.loadBasis(b) {
			t.Fatal("the snapshot does not load")
		}
		ok, err := s.adoptFactor(b)
		if err != nil {
			t.Fatal(err)
		}
		return s, ok
	}
	if _, ok := adopt(f.buildWork); ok {
		t.Fatal("adopted a snapshot whose clock has run out")
	}
	s, ok := adopt(f.buildWork - 1)
	if !ok {
		t.Fatal("refused a snapshot with clock left")
	}
	if want := f.buildWork - 1 + f.nnz; s.buildWork != f.buildWork || s.updateWork != want {
		t.Fatalf("resumed clock: build %d update %d, want build %d update %d",
			s.buildWork, s.updateWork, f.buildWork, want)
	}
}
