package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

// sameSolve fails unless two solves ended the same way bit for bit:
// error text, status, iterations, objective, every X and the basis
// snapshot with the size of the update file it carries.
func sameSolve(t testing.TB, label string, got, want *Solution, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, fresh %v", label, gotErr, wantErr)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: solution %v, fresh %v", label, got, want)
	}
	if got == nil {
		return
	}
	if got.Status != want.Status || got.Iters != want.Iters ||
		math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		t.Fatalf("%s: %v after %d iterations, obj %v; fresh %v after %d, obj %v",
			label, got.Status, got.Iters, got.Obj, want.Status, want.Iters, want.Obj)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d values, fresh %d", label, len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: x[%d] = %v, fresh %v", label, j, got.X[j], want.X[j])
		}
	}
	if (got.Basis == nil) != (want.Basis == nil) {
		t.Fatalf("%s: basis %v, fresh %v", label, got.Basis, want.Basis)
	}
	if got.Basis == nil {
		return
	}
	if !slices.Equal(got.Basis.State, want.Basis.State) || !slices.Equal(got.Basis.Order, want.Basis.Order) {
		t.Fatalf("%s: the basis snapshot differs from the fresh solve's", label)
	}
	gf, wf := got.Basis.factor, want.Basis.factor
	if (gf == nil) != (wf == nil) || gf != nil && (len(gf.updates) != len(wf.updates) || gf.nnz != wf.nnz) {
		t.Fatalf("%s: the carried factorization differs from the fresh solve's", label)
	}
}

// poisonWorkspace fills the dense scratch of p's cached workspace with
// NaN, so a recycled solve that read any of it before writing it would
// go wrong.
func poisonWorkspace(t *testing.T, p *Problem) {
	t.Helper()
	s := p.work.Load()
	if s == nil {
		t.Fatal("no workspace cached on the problem")
	}
	for _, v := range [][]float64{s.xB, s.y, s.d, s.gamma, s.rowW, s.pcost} {
		for i := range v {
			v[i] = math.NaN()
		}
	}
}

// etaBits copies the update file a snapshot carries, entries as bits.
func etaBits(b *Basis) [][]uint64 {
	var out [][]uint64
	for _, e := range b.factor.updates {
		row := []uint64{uint64(e.r), math.Float64bits(e.piv)}
		for i, ix := range e.idx {
			row = append(row, uint64(ix), math.Float64bits(e.val[i]))
		}
		out = append(out, row)
	}
	return out
}

// checkRecycledSequence runs a cold solve, a bound edit with a warm
// re-solve, an objective edit, an Infeasible solve and an IterLimit
// solve on one Problem, and holds each result to the same solve on a
// fresh clone. Every solve but the first must recycle the cached
// workspace. The first solve's snapshot must come out of
// each later solve with its update file untouched, although they carve
// their etas from the same arena. With poison set, the recycled
// dense scratch is NaN before each recycled solve.
func checkRecycledSequence(t *testing.T, poison bool) {
	rng := rand.New(rand.NewSource(22))
	p := allocatorLP(rng, 30, 60, false)
	var prev *Solution
	ws := (*simplex)(nil)
	var first *Basis // the first solve's snapshot and its update file
	var firstEtas [][]uint64
	step := func(label string, o *Options, recycled bool) *Solution {
		t.Helper()
		if poison && recycled {
			poisonWorkspace(t, p)
		}
		want, wantErr := p.Clone().Solve(o)
		got, err := p.Solve(o)
		sameSolve(t, label, got, want, err, wantErr)
		cur := p.work.Load()
		if cur == nil {
			t.Fatalf("%s: the solve left no workspace", label)
		}
		if recycled != (cur == ws) {
			t.Fatalf("%s: workspace recycled %v, want %v", label, cur == ws, recycled)
		}
		ws = cur
		if first != nil && !slices.EqualFunc(etaBits(first), firstEtas, slices.Equal) {
			t.Fatalf("%s: the solve overwrote the update etas of the first solve's snapshot", label)
		}
		return got
	}

	prev = step("cold", nil, false)
	if prev.Status != Optimal {
		t.Fatalf("cold: %v", prev.Status)
	}
	first, firstEtas = prev.Basis, etaBits(prev.Basis)
	if len(firstEtas) == 0 {
		t.Fatal("the cold solve's snapshot carries no update etas")
	}
	// Branch down on the column with the largest value.
	j := 0
	for k, x := range prev.X {
		if x > prev.X[j] {
			j = k
		}
	}
	p.SetBounds(j, 0, 0)
	prev = step("bound edit, warm", &Options{WarmBasis: prev.Basis}, true)
	if prev.Status != Optimal {
		t.Fatalf("bound edit: %v", prev.Status)
	}
	p.SetObj((j+1)%p.NumCols(), 500)
	prev = step("objective edit, warm", &Options{WarmBasis: prev.Basis}, true)
	// Row 0 is Σ x = 1 over its columns: fixing them all at 0 leaves
	// no point.
	var row0 []int
	for k := 0; k < p.NumCols(); k++ {
		if len(p.Col(k)) > 0 && p.Col(k)[0].Row == 0 {
			row0 = append(row0, k)
		}
	}
	saved := make([][2]float64, len(row0))
	for i, k := range row0 {
		saved[i] = [2]float64{p.lo[k], p.hi[k]}
		p.SetBounds(k, 0, 0)
	}
	if sol := step("infeasible, warm", &Options{WarmBasis: prev.Basis}, true); sol.Status != Infeasible {
		t.Fatalf("infeasible: %v", sol.Status)
	}
	for i, k := range row0 {
		p.SetBounds(k, saved[i][0], saved[i][1])
	}
	if sol := step("iteration limit, cold", &Options{MaxIters: 3}, true); sol.Status != IterLimit {
		t.Fatalf("iteration limit: %v", sol.Status)
	}
}

// TestRecycledWorkspaceMatchesFresh checks that a solve on a recycled
// workspace ends bit for bit where a solve on a fresh one does.
func TestRecycledWorkspaceMatchesFresh(t *testing.T) {
	checkRecycledSequence(t, false)
}

// TestRecycledWorkspaceIgnoresStaleScratch is the same sequence with
// the recycled dense scratch poisoned: no solve may read what an
// earlier one left there.
func TestRecycledWorkspaceIgnoresStaleScratch(t *testing.T) {
	checkRecycledSequence(t, true)
}

// TestWarmResolveAllocations pins the allocations of a warm re-solve on
// a recycled workspace that adopts its carried factorization: the
// Solution, its X and the Basis snapshot (the struct, State, Order,
// the carried-factor header and its copy of the update file). Every
// array the pivot loops use comes from the workspace.
func TestWarmResolveAllocations(t *testing.T) {
	p := buildAssignment(12, 4)
	base, err := p.Solve(nil)
	if err != nil || base.Status != Optimal {
		t.Fatalf("solve: %v %v", base, err)
	}
	j := slices.IndexFunc(base.X, func(x float64) bool { return x > 0.5 })
	p.SetBounds(j, 0, 0) // branch down: the warm re-solve runs the dual
	o := &Options{WarmBasis: base.Basis}
	before := obs.TakeSnapshot()
	sol, err := p.Solve(o)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("warm re-solve: %v %v", sol, err)
	}
	d := obs.Since(before)
	if d["lp/refactorizations"] != 0 || d["lp/dual_iterations"] == 0 {
		t.Fatalf("the warm re-solve should adopt its factorization and run the dual: %v", d)
	}
	ws := p.work.Load()
	const want = 7
	if allocs := testing.AllocsPerRun(50, func() { p.Solve(o) }); allocs != want {
		t.Fatalf("a warm re-solve allocates %v times, want %d", allocs, want)
	}
	if p.work.Load() != ws {
		t.Fatal("the re-solves did not recycle the workspace")
	}
}
