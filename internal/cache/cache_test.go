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
	if _, served := h.BeforeSolve(m); served {
		t.Fatal("cold request served from cache")
	}
	res, err := m.Solve(&mip.Options{Workers: workers})
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
	h0 := &Hook{C: c}
	if _, served := h0.BeforeSolve(m); served || h0.Outcome != OutcomeMiss {
		t.Fatalf("cold request: served=%v outcome=%v", served, h0.Outcome)
	}
	cold, err := m.Solve(&mip.Options{Workers: 1})
	if err != nil || cold.Status != mip.Optimal {
		t.Fatalf("cold solve: %v %v", cold.Status, err)
	}
	if m.Stats().Presolve == nil {
		t.Fatal("cold solve skipped presolve")
	}
	// Populating the cache from a presolved optimum stores the point,
	// bounds and signature only: no LP runs on the miss path.
	before := obs.TakeSnapshot()
	h0.AfterSolve(m, cold)
	if d := obs.Since(before); d["lp/solves"] != 0 {
		t.Fatalf("AfterSolve ran %d LP solves, want 0", d["lp/solves"])
	}

	// Resubmit the identical problem: must be served without a solve.
	m2 := model.FromILP(p.Clone(), mask)
	h := &Hook{C: c}
	x, served := h.BeforeSolve(m2)
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

	// A bound edit changes the exact hash: the request is a plain miss,
	// with no solution served and the cached entry left in place.
	q := p.Clone()
	q.SetBounds(0, 0, 0)
	h = &Hook{C: c}
	if x, served := h.BeforeSolve(model.FromILP(q, mask)); served || x != nil || h.Outcome != OutcomeMiss {
		t.Fatalf("bound edit: served=%v x=%v outcome=%v, want a miss", served, x != nil, h.Outcome)
	}
	if c.Len() != 1 {
		t.Fatalf("entries after the edited miss: %d, want 1", c.Len())
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
	x, served := h.BeforeSolve(m2)
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
	if _, served := h.BeforeSolve(m2); served {
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
	res, err := m2.Solve(&mip.Options{Workers: 1})
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
	if _, served := h.BeforeSolve(m); served {
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
