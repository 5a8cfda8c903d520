package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/obs"
)

// knapsackModel builds a MultiKnapsack instance wrapped in a Model,
// cloning the problem so callers can reuse the generator output.
func knapsackModel(n, m int, seed int64) (*model.Model, *lp.Problem, []bool) {
	p := mip.MultiKnapsack(n, m, seed)
	mask := make([]bool, p.NumCols())
	for j := range mask {
		mask[j] = true
	}
	return model.FromILP(p.Clone(), mask), p, mask
}

// coldSolve runs one uncached solve through a fresh hook so AfterSolve
// populates c, returning the result.
func coldSolve(t *testing.T, c *Cache, m *model.Model, workers int) *mip.Result {
	t.Helper()
	h := &Hook{C: c}
	opts := &mip.Options{Workers: workers}
	if _, served := h.BeforeSolve(m, opts); served {
		t.Fatal("cold request served from cache")
	}
	res, err := m.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal {
		t.Fatalf("cold solve status %v", res.Status)
	}
	h.AfterSolve(m, res)
	return res
}

func TestExactHitServed(t *testing.T) {
	c := New(Config{})
	m, p, mask := knapsackModel(20, 6, 1)
	base := obs.TakeSnapshot()
	cold := coldSolve(t, c, m, 1)

	// Resubmit the identical problem: must be served without a solve.
	m2 := model.FromILP(p.Clone(), mask)
	h := &Hook{C: c}
	x, served := h.BeforeSolve(m2, &mip.Options{Workers: 1})
	if !served || h.Outcome != OutcomeHit {
		t.Fatalf("resubmit not served: served=%v outcome=%v", served, h.Outcome)
	}
	if err := m2.CheckFeasible(x, 1e-6); err != nil {
		t.Fatalf("served point infeasible: %v", err)
	}
	if got, want := m2.Objective(x), cold.Obj; math.Abs(got-want) > 1e-9 {
		t.Fatalf("served objective %g, want %g", got, want)
	}
	d := obs.Since(base)
	if d["cache/hits"] != 1 || d["cache/misses"] != 1 {
		t.Fatalf("counter deltas: hits=%d misses=%d", d["cache/hits"], d["cache/misses"])
	}
}

func TestPermutedModelHit(t *testing.T) {
	// Build the same knapsack with columns and rows declared in a
	// shuffled order: the exact hash must match and the cached optimum
	// must translate onto the permuted coordinates.
	c := New(Config{})
	m, p, mask := knapsackModel(20, 6, 2)
	cold := coldSolve(t, c, m, 1)

	rng := rand.New(rand.NewSource(5))
	n := p.NumCols()
	colPerm := rng.Perm(n) // new index i holds old column colPerm[i]
	oldToNew := make([]int, n)
	for i, j := range colPerm {
		oldToNew[j] = i
	}
	q := lp.NewProblem()
	for _, j := range colPerm {
		lo, hi := p.Bounds(j)
		q.AddCol(p.Obj(j), lo, hi)
	}
	type rnz struct {
		col int
		val float64
	}
	rows := make([][]rnz, p.NumRows())
	for j := 0; j < n; j++ {
		for _, nz := range p.Col(j) {
			rows[nz.Row] = append(rows[nz.Row], rnz{oldToNew[j], nz.Val})
		}
	}
	for _, r := range rng.Perm(p.NumRows()) {
		lo, hi := p.RowBounds(r)
		cols := make([]int, len(rows[r]))
		vals := make([]float64, len(rows[r]))
		for k, e := range rows[r] {
			cols[k], vals[k] = e.col, e.val
		}
		q.AddRow(lo, hi, cols, vals)
	}

	m2 := model.FromILP(q, mask)
	h := &Hook{C: c}
	x, served := h.BeforeSolve(m2, &mip.Options{Workers: 1})
	if !served || h.Outcome != OutcomeHit {
		t.Fatalf("permuted resubmit not served: served=%v outcome=%v", served, h.Outcome)
	}
	if err := m2.CheckFeasible(x, 1e-6); err != nil {
		t.Fatalf("translated point infeasible: %v", err)
	}
	if got, want := m2.Objective(x), cold.Obj; math.Abs(got-want) > 1e-9 {
		t.Fatalf("translated objective %g, want %g", got, want)
	}
}

func TestNearMissWarmStart(t *testing.T) {
	// A bound edit after a cached solve must warm-start: the cached
	// optimum as seed plus the transferred optimality proof should cut
	// nodes+iterations by well over the required 2x, with presolve on.
	c := New(Config{})
	m, p, mask := knapsackModel(34, 12, 7)
	h0 := &Hook{C: c}
	opts0 := &mip.Options{Workers: 1}
	if _, served := h0.BeforeSolve(m, opts0); served || h0.Outcome != OutcomeMiss {
		t.Fatalf("cold request: served=%v outcome=%v", served, h0.Outcome)
	}
	cold, err := m.Solve(opts0)
	if err != nil || cold.Status != mip.Optimal {
		t.Fatalf("cold solve: %v %v", cold.Status, err)
	}
	if m.Stats().Presolve == nil {
		t.Fatal("cold solve skipped presolve")
	}
	// Populating the cache from a presolved optimum stores the point,
	// bounds and signature only: no LP runs on the miss path.
	base := obs.TakeSnapshot()
	h0.AfterSolve(m, cold)
	if d := obs.Since(base); d["lp/solves"] != 0 {
		t.Fatalf("AfterSolve ran %d LP solves, want 0", d["lp/solves"])
	}

	// Fix a variable that is zero in the optimum: the region shrinks
	// and the incumbent stays feasible and optimal.
	jz := -1
	for j, v := range cold.X {
		if v < 1e-9 {
			jz = j
			break
		}
	}
	if jz < 0 {
		t.Fatal("no zero variable in knapsack optimum")
	}
	q := p.Clone()
	q.SetBounds(jz, 0, 0)

	// Reference: the edited model solved cold.
	ref, err := model.FromILP(q.Clone(), mask).Solve(&mip.Options{Workers: 1})
	if err != nil || ref.Status != mip.Optimal {
		t.Fatalf("reference solve: %v %v", ref.Status, err)
	}

	base = obs.TakeSnapshot()
	m2 := model.FromILP(q, mask)
	h := &Hook{C: c}
	opts := &mip.Options{Workers: 1}
	if _, served := h.BeforeSolve(m2, opts); served {
		t.Fatal("near miss served as exact hit")
	}
	if h.Outcome != OutcomeNearMiss {
		t.Fatalf("outcome %v, want near_miss", h.Outcome)
	}
	if opts.Seed == nil || opts.LowerBound == nil {
		t.Fatalf("warm-start material missing: seed=%v lb=%v", opts.Seed != nil, opts.LowerBound != nil)
	}
	if opts.Presolve != 0 {
		t.Fatalf("near miss changed Presolve to %d", opts.Presolve)
	}
	warm, err := m2.Solve(opts)
	if err != nil || warm.Status != mip.Optimal {
		t.Fatalf("warm solve: %v %v", warm.Status, err)
	}
	if m2.Stats().Presolve == nil {
		t.Fatal("near-miss solve skipped presolve")
	}
	if math.Abs(warm.Obj-ref.Obj) > 1e-6 {
		t.Fatalf("warm objective %g, cold reference %g", warm.Obj, ref.Obj)
	}

	coldWork := cold.Nodes + cold.LPIters
	warmWork := warm.Nodes + warm.LPIters
	if warmWork*2 > coldWork {
		t.Fatalf("warm start too weak: cold %d nodes + %d iters, warm %d + %d",
			cold.Nodes, cold.LPIters, warm.Nodes, warm.LPIters)
	}
	d := obs.Since(base)
	if d["cache/near_misses"] != 1 {
		t.Fatalf("near_misses delta %d", d["cache/near_misses"])
	}
	if d["mip/bound_proofs"] != 1 {
		t.Fatalf("bound_proofs delta %d (optimality proof did not transfer)", d["mip/bound_proofs"])
	}
}

// TestNearMissMatchesCold pins the near-miss tier's answers, not its
// speed: an edit that moves the optimum, or changes the objective,
// must come back with the edited model's cold optimum, and the cached
// bound must not end the search early. The "pinned" model has an item
// fixed at 1 with a large cost, so presolve moves that cost into the
// objective constant and model.Solve must remap the seed and shift the
// bound (TestPresolveShiftsLowerBound pins the shift on its own).
func TestNearMissMatchesCold(t *testing.T) {
	// fixOne fixes to 0 a free variable the cached optimum sets to 1:
	// the region shrinks, so the cached bound applies.
	fixOne := func(q *lp.Problem, x []float64) {
		for j, v := range x {
			if lo, _ := q.Bounds(j); v > 0.5 && lo == 0 {
				q.SetBounds(j, 0, 0)
				return
			}
		}
		t.Fatal("no free variable at 1 in the cached optimum")
	}
	// halveValue halves (rounding to an integer) the value of every
	// item the cached optimum packs: the objective changes, so the
	// cached bound does not apply.
	halveValue := func(q *lp.Problem, x []float64) {
		for j, v := range x {
			if v > 0.5 {
				q.SetObj(j, math.Round(q.Obj(j)/2))
			}
		}
	}
	// An exact gap: the answers are compared at 1e-9.
	exact := func() *mip.Options { return &mip.Options{Workers: 1, Gap: 1e-12} }
	for _, pinned := range []bool{false, true} {
		for _, ed := range []struct {
			name      string
			apply     func(q *lp.Problem, x []float64)
			tightened bool
		}{{"fix-one", fixOne, true}, {"objective", halveValue, false}} {
			t.Run(fmt.Sprintf("pinned=%v/%s", pinned, ed.name), func(t *testing.T) {
				p := mip.MultiKnapsack(20, 6, 11)
				if pinned {
					p.SetBounds(0, 1, 1)
					p.SetObj(0, 100*p.Obj(0))
				}
				mask := make([]bool, p.NumCols())
				for j := range mask {
					mask[j] = true
				}
				c := New(Config{})
				m := model.FromILP(p.Clone(), mask)
				h0 := &Hook{C: c}
				opts0 := exact()
				h0.BeforeSolve(m, opts0)
				cached, err := m.Solve(opts0)
				if err != nil || cached.Status != mip.Optimal {
					t.Fatalf("cached solve: %v %v", cached.Status, err)
				}
				h0.AfterSolve(m, cached)
				if pinned && m.Stats().Presolve.FixedVars == 0 {
					t.Fatal("presolve fixed no column of the pinned model")
				}

				q := p.Clone()
				ed.apply(q, cached.X)
				ref, err := model.FromILP(q.Clone(), mask).Solve(exact())
				if err != nil || ref.Status != mip.Optimal {
					t.Fatalf("cold reference: %v %v", ref.Status, err)
				}
				if ed.tightened && ref.Obj <= cached.Obj+1e-9 {
					t.Fatalf("edit did not move the optimum: %g vs cached %g", ref.Obj, cached.Obj)
				}

				before := obs.TakeSnapshot()
				m2 := model.FromILP(q, mask)
				h := &Hook{C: c}
				opts := exact()
				if _, served := h.BeforeSolve(m2, opts); served || h.Outcome != OutcomeNearMiss {
					t.Fatalf("served=%v outcome=%v, want near_miss", served, h.Outcome)
				}
				if opts.Seed == nil || (opts.LowerBound != nil) != ed.tightened {
					t.Fatalf("seed=%v lower bound=%v for a %s edit", opts.Seed != nil, opts.LowerBound != nil, ed.name)
				}
				warm, err := m2.Solve(opts)
				if err != nil || warm.Status != mip.Optimal {
					t.Fatalf("near-miss solve: %v %v", warm.Status, err)
				}
				if math.Abs(warm.Obj-ref.Obj) > 1e-9 || math.Abs(m2.Objective(warm.X)-ref.Obj) > 1e-9 {
					t.Fatalf("near-miss objective %.12g (point %.12g), cold %.12g",
						warm.Obj, m2.Objective(warm.X), ref.Obj)
				}
				if err := m2.CheckFeasible(warm.X, 1e-6); err != nil {
					t.Fatalf("near-miss point infeasible: %v", err)
				}
				if d := obs.Since(before)["mip/bound_proofs"]; d != 0 {
					t.Fatalf("bound_proofs delta %d, want 0", d)
				}
			})
		}
	}
}

func TestCorruptEntryFallsBack(t *testing.T) {
	c := New(Config{})
	m, p, mask := knapsackModel(20, 6, 3)
	cold := coldSolve(t, c, m, 1)

	plan, err := fault.Parse("cache/corrupt@1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()

	base := obs.TakeSnapshot()
	m2 := model.FromILP(p.Clone(), mask)
	h := &Hook{C: c}
	opts := &mip.Options{Workers: 1}
	if _, served := h.BeforeSolve(m2, opts); served {
		t.Fatal("corrupted entry was served")
	}
	d := obs.Since(base)
	if d["cache/validation_drops"] != 1 {
		t.Fatalf("validation_drops delta %d", d["cache/validation_drops"])
	}
	if c.Len() != 0 {
		t.Fatalf("corrupted entry not dropped: %d entries", c.Len())
	}
	// The fallback solve still produces the right answer.
	res, err := m2.Solve(opts)
	if err != nil || res.Status != mip.Optimal {
		t.Fatalf("fallback solve: %v %v", res.Status, err)
	}
	if math.Abs(res.Obj-cold.Obj) > 1e-6 {
		t.Fatalf("fallback objective %g, want %g", res.Obj, cold.Obj)
	}
}

func TestEvictionEntryCap(t *testing.T) {
	base := obs.TakeSnapshot()
	c := New(Config{MaxEntries: 2})
	for seed := int64(0); seed < 3; seed++ {
		m, _, _ := knapsackModel(8, 3, seed)
		coldSolve(t, c, m, 1)
	}
	if c.Len() != 2 {
		t.Fatalf("entries after cap: %d, want 2", c.Len())
	}
	if d := obs.Since(base); d["cache/evictions"] != 1 {
		t.Fatalf("evictions delta %d", d["cache/evictions"])
	}
	// The oldest model is gone: resubmitting it misses.
	m, _, _ := knapsackModel(8, 3, 0)
	h := &Hook{C: c}
	if _, served := h.BeforeSolve(m, &mip.Options{Workers: 1}); served {
		t.Fatal("evicted entry served")
	}
	if h.Outcome != OutcomeMiss {
		t.Fatalf("outcome %v, want miss", h.Outcome)
	}
}

func TestEvictionByteCap(t *testing.T) {
	c := New(Config{MaxEntries: 64, MaxBytes: 250})
	for i := 0; i < 3; i++ {
		c.PutOutput(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	if _, ok := c.GetOutput("k0"); ok {
		t.Fatal("oldest output survived the byte cap")
	}
	if _, ok := c.GetOutput("k2"); !ok {
		t.Fatal("newest output evicted")
	}
}
