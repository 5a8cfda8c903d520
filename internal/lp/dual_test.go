package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

// solveBoth solves q cold with the forced primal and warm from basis
// b with the default method, the dual, and checks the two agree on
// status and objective. It returns the two iteration counts for
// callers that also assert on effort.
func solveBoth(t *testing.T, q *Problem, b *Basis, label string) (coldIters, warmIters int) {
	t.Helper()
	cold, err := q.Solve(&Options{Method: MethodPrimal})
	if err != nil {
		t.Fatalf("%s: cold primal: %v", label, err)
	}
	warm, err := q.Solve(&Options{WarmBasis: b})
	if err != nil {
		t.Fatalf("%s: warm dual: %v", label, err)
	}
	if cold.Status != warm.Status {
		t.Fatalf("%s: status mismatch: cold primal %v, warm dual %v", label, cold.Status, warm.Status)
	}
	if cold.Status == Optimal {
		if diff := math.Abs(cold.Obj - warm.Obj); diff > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("%s: objective mismatch: cold %v, warm dual %v", label, cold.Obj, warm.Obj)
		}
	}
	return cold.Iters, warm.Iters
}

// TestDualWarmBoundChange branches on a basic variable of a family of
// assignment LPs (the branch-and-bound node pattern) and checks the
// warm dual re-solve reaches the cold primal's optimum — and that the
// dual simplex actually ran.
func TestDualWarmBoundChange(t *testing.T) {
	base := obs.TakeSnapshot()
	for trial := 0; trial < 12; trial++ {
		p := buildAssignment(5+trial%4, int64(100+trial))
		sol, err := p.Solve(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: root solve %v %v", trial, sol, err)
		}
		// Fix the first variable the optimum holds above one half.
		fix := -1
		for j, x := range sol.X {
			if x > 0.5 {
				fix = j
				break
			}
		}
		if fix < 0 {
			continue
		}
		q := p.Clone()
		q.SetBounds(fix, 0, 0)
		solveBoth(t, q, sol.Basis, "bound change")
	}
	if d := obs.Since(base); d["lp/dual_iterations"] == 0 {
		t.Fatal("lp/dual_iterations = 0: the warm re-solves never took the dual path")
	}
}

// TestDualWarmTightenedBounds caps every column of a random subset at
// half its optimal value: bounds that imply the cut Σ_S x <= act/2 and
// cut off the optimal vertex. The warm re-solve from the now primal-
// infeasible basis must take the dual and match a cold primal solve.
func TestDualWarmTightenedBounds(t *testing.T) {
	base := obs.TakeSnapshot()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		p := buildAssignment(5+trial%4, int64(200+trial))
		sol, err := p.Solve(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: root solve %v %v", trial, sol, err)
		}
		q := p.Clone()
		act := 0.0
		for j, x := range sol.X {
			if rng.Intn(2) == 0 {
				lo, _ := q.Bounds(j)
				q.SetBounds(j, lo, x/2)
				act += x
			}
		}
		if act < 0.75 {
			continue
		}
		solveBoth(t, q, sol.Basis, "tightened bounds")
	}
	if d := obs.Since(base); d["lp/dual_iterations"] == 0 {
		t.Fatal("lp/dual_iterations = 0: the re-solves never took the dual path")
	}
}

// TestDualDetectsInfeasible drives a warm dual re-solve into an
// infeasible subproblem (bounds that contradict an equality row) and
// checks it agrees with the cold primal verdict.
func TestDualDetectsInfeasible(t *testing.T) {
	p := assignment3()
	sol, err := p.Solve(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("root: %v %v", sol, err)
	}
	q := p.Clone()
	// Row 0 demands x00+x01+x02 = 1; fixing all three to zero is
	// hopeless.
	for j := 0; j < 3; j++ {
		q.SetBounds(j, 0, 0)
	}
	solveBoth(t, q, sol.Basis, "infeasible branch")
}

// TestDualColdFallsBackToPrimal solves cold a problem whose crash
// basis is not dual feasible (negative objective coefficients): the
// default method must take the primal path and reach its optimum.
func TestDualColdFallsBackToPrimal(t *testing.T) {
	p := NewProblem()
	var cols []int
	var vals []float64
	for j := 0; j < 6; j++ {
		cols = append(cols, p.AddCol(-1-float64(j%3), 0, 1))
		vals = append(vals, 1)
	}
	p.AddRow(math.Inf(-1), 2.5, cols, vals)
	want, err := p.Solve(&Options{Method: MethodPrimal})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || math.Abs(got.Obj-want.Obj) > 1e-6 {
		t.Fatalf("default cold solve: %v obj %v, want %v obj %v",
			got.Status, got.Obj, want.Status, want.Obj)
	}
}

// TestDualWarmCheaperThanCold measures the point of the whole
// exercise: across a batch of single-bound-change node re-solves, the
// warm dual path must spend far fewer iterations than cold primal
// solves of the same subproblems.
func TestDualWarmCheaperThanCold(t *testing.T) {
	totalCold, totalWarm := 0, 0
	for trial := 0; trial < 10; trial++ {
		p := buildAssignment(8, int64(300+trial))
		sol, err := p.Solve(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, sol, err)
		}
		fix := -1
		for j, x := range sol.X {
			if x > 0.5 {
				fix = j
				break
			}
		}
		if fix < 0 {
			continue
		}
		q := p.Clone()
		q.SetBounds(fix, 0, 0)
		c, w := solveBoth(t, q, sol.Basis, "effort")
		totalCold += c
		totalWarm += w
	}
	if totalWarm*2 >= totalCold {
		t.Fatalf("warm dual iterations %d not clearly cheaper than cold primal %d", totalWarm, totalCold)
	}
}

// allocatorLP builds a random sparse LP shaped like the register
// allocator's root relaxation: 0-1 columns at their lower bound, costs
// ≥ 0 with a quarter of them zero, "one location" equations
// (Σ x = 1), pairwise conflict rows (x_a + x_b ≤ 1) and range rows
// linking two columns (0 ≤ x_a − x_b ≤ 1). With infeasible set, an
// extra row demands Σ x ≥ 1.5 over the columns of the first equation.
func allocatorLP(rng *rand.Rand, m, n int, infeasible bool) *Problem {
	p := NewProblem()
	for j := 0; j < n; j++ {
		c := 0.0
		if rng.Intn(4) != 0 {
			// Six distinct magnitudes, so columns of one equation often
			// tie, split by near ties a few µ apart: above feasTol, below
			// the perturbation of costs in the tens and hundreds.
			c = float64(1+rng.Intn(3))*math.Pow(10, float64(1+rng.Intn(2))) + 1e-6*float64(rng.Intn(4))
		}
		p.AddCol(c, 0, 1)
	}
	var first []int
	for r := 0; r < m; r++ {
		kind := rng.Intn(3)
		if r == 0 {
			kind = 0 // the crash point violates at least one row
		}
		switch kind {
		case 0:
			cols := rng.Perm(n)[:2+rng.Intn(6)]
			vals := make([]float64, len(cols))
			for i := range vals {
				vals[i] = 1
			}
			p.AddRow(1, 1, cols, vals)
			if first == nil {
				first = cols
			}
		case 1:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				p.AddRow(math.Inf(-1), 1, []int{a, b}, []float64{1, 1})
			}
		default:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				p.AddRow(0, 1, []int{a, b}, []float64{1, -1})
			}
		}
	}
	if infeasible && first != nil {
		vals := make([]float64, len(first))
		for i := range vals {
			vals[i] = 1
		}
		p.AddRow(1.5, Inf, first, vals)
	}
	return p
}

// TestColdDualMatchesPrimal solves random allocator-shaped LPs cold
// with the default method, which runs the dual simplex on perturbed
// costs from the crash basis, and checks every result against the
// two-phase primal (MethodPrimal): the same status and objective, a
// point inside the problem's own bounds, reduced costs recomputed from
// the true costs that are dual feasible (no perturbation is left in
// the answer), and a second solve with the same bits.
func TestColdDualMatchesPrimal(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	counts := map[Status]int{}
	for trial := 0; trial < 400; trial++ {
		m := 10 + rng.Intn(40)
		p := allocatorLP(rng, m, m+rng.Intn(2*m), trial%5 == 4)
		var o Options
		o.fill(p)
		s := newSimplex(p, &o)
		got, err := s.solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.dualIters == 0 {
			t.Fatalf("trial %d: the cold solve took no dual pivot", trial)
		}
		want, err := p.Solve(&Options{Method: MethodPrimal})
		if err != nil {
			t.Fatalf("trial %d: primal: %v", trial, err)
		}
		counts[got.Status]++
		if got.Status != want.Status {
			t.Fatalf("trial %d: cold dual %v, primal %v", trial, got.Status, want.Status)
		}
		if got.Status != Optimal {
			continue
		}
		if d := math.Abs(got.Obj - want.Obj); d > 1e-9*(1+math.Abs(want.Obj)) {
			t.Fatalf("trial %d: objective %v, primal %v", trial, got.Obj, want.Obj)
		}
		act := make([]float64, p.NumRows())
		for j, x := range got.X {
			if x < p.lo[j]-feasTol || x > p.hi[j]+feasTol {
				t.Fatalf("trial %d: x[%d] = %v outside [%v, %v]", trial, j, x, p.lo[j], p.hi[j])
			}
			for _, nz := range p.Col(j) {
				act[nz.Row] += nz.Val * x
			}
		}
		for r, a := range act {
			if a < p.a.rowLo[r]-feasTol || a > p.a.rowHi[r]+feasTol {
				t.Fatalf("trial %d: row %d activity %v outside [%v, %v]", trial, r, a, p.a.rowLo[r], p.a.rowHi[r])
			}
		}
		f := newSimplex(p, &o)
		if !f.loadBasis(got.Basis) {
			t.Fatalf("trial %d: final basis rejected", trial)
		}
		if err := f.refactor(); err != nil {
			t.Fatal(err)
		}
		f.computeReducedCosts()
		if !f.dualFeasible(feasTol) {
			t.Fatalf("trial %d: reduced costs from the true costs are not dual feasible", trial)
		}
		again, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(again.X[j]) {
				t.Fatalf("trial %d: x[%d] = %v, then %v", trial, j, got.X[j], again.X[j])
			}
		}
	}
	if counts[Optimal] < 200 || counts[Infeasible] < 40 {
		t.Fatalf("instance mix %v: want at least 200 optimal and 40 infeasible", counts)
	}
	t.Logf("statuses: %v", counts)
}

// refRatioTest is ratioTest over a full sort of the candidates under
// cmpDualCand, the walk that the heap's partial one must reproduce.
func refRatioTest(cands []dualCand, slope float64, rng func(int) float64) (enter int, ratio float64, flips []int) {
	sorted := slices.Clone(cands)
	slices.SortFunc(sorted, cmpDualCand)
	for _, c := range sorted {
		r := rng(c.j)
		if gain := c.abs * r; !math.IsInf(r, 1) && slope-gain > 1e-9 {
			flips = append(flips, c.j)
			slope -= gain
			continue
		}
		return c.j, c.ratio, flips
	}
	return -1, 0, flips
}

// checkRatioTest runs ratioTest on a copy of cands and checks its
// entering column, ratio and flip list against refRatioTest's.
func checkRatioTest(t *testing.T, cands []dualCand, slope float64, rng func(int) float64, flips []int) []int {
	t.Helper()
	wantEnter, wantRatio, wantFlips := refRatioTest(cands, slope, rng)
	enter, ratio, flips := ratioTest(slices.Clone(cands), slope, rng, flips)
	if enter != wantEnter || math.Float64bits(ratio) != math.Float64bits(wantRatio) || !slices.Equal(flips, wantFlips) {
		t.Fatalf("candidates %v, slope %v: heap gives enter %d at %v flipping %v, a full sort enter %d at %v flipping %v",
			cands, slope, enter, ratio, flips, wantEnter, wantRatio, wantFlips)
	}
	return flips
}

// permute calls f with every ordering of c (Heap's algorithm).
func permute(c []dualCand, k int, f func()) {
	if k <= 1 {
		f()
		return
	}
	for i := 0; i < k-1; i++ {
		permute(c, k-1, f)
		if k%2 == 0 {
			c[i], c[k-1] = c[k-1], c[i]
		} else {
			c[0], c[k-1] = c[k-1], c[0]
		}
	}
	permute(c, k-1, f)
}

// TestPartialRatioTestMatchesSort checks the heap's partial
// bound-flipping ratio test against a walk over a full sort under
// cmpDualCand, on random candidate sets drawn from few ratios, |α|
// values and ranges, so that exact ties in ratio and in |α|, infinite
// ranges, fixed (zero-range) columns and dual rays (every candidate
// flips) all occur. Every ordering of a set up to 6 candidates, and 30
// random orderings of a larger one, must give the same entering
// column, ratio and flip list. It also lists mark words against
// slices.Sort around ascend's switch from sorting to reading the words.
func TestPartialRatioTestMatchesSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	ratios := []float64{0, 0, 0.25, 1, 1, 3}
	abss := []float64{0.5, 1, 1, 2}
	ranges := []float64{math.Inf(1), 0, 1, 1, 2.5}
	var ties, infs, fixed, rays, entered int
	var flips []int
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rnd.Intn(12)
		rng := map[int]float64{}
		cands := make([]dualCand, k)
		total := 0.0
		for i, j := range rnd.Perm(3 * k)[:k] {
			cands[i] = dualCand{j, ratios[rnd.Intn(len(ratios))], abss[rnd.Intn(len(abss))]}
			rng[j] = ranges[rnd.Intn(len(ranges))]
			switch r := rng[j]; {
			case math.IsInf(r, 1):
				infs++
			case r == 0:
				fixed++
			default:
				total += cands[i].abs * r
			}
		}
		for a := range cands {
			for b := a + 1; b < len(cands); b++ {
				if cands[a].ratio == cands[b].ratio && cands[a].abs == cands[b].abs {
					ties++
				}
			}
		}
		slope := rnd.Float64() * 1.2 * (total + 1)
		rangeOf := func(j int) float64 { return rng[j] }
		enter, _, _ := refRatioTest(cands, slope, rangeOf)
		if enter < 0 {
			rays++
		} else {
			entered++
		}
		if k <= 6 {
			permute(cands, k, func() { flips = checkRatioTest(t, cands, slope, rangeOf, flips) })
			continue
		}
		for i := 0; i < 30; i++ {
			rnd.Shuffle(k, func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
			flips = checkRatioTest(t, cands, slope, rangeOf, flips)
		}
	}
	if ties == 0 || infs == 0 || fixed == 0 || rays == 0 || entered == 0 {
		t.Fatalf("cases: %d exact ties, %d infinite ranges, %d fixed columns, %d dual rays, %d entered; want each",
			ties, infs, fixed, rays, entered)
	}

	for _, m := range []int{1, 64, 1000, 20000} {
		b := newMarks(m)
		most := 0
		for b.sorts(most + 1) {
			most++
		}
		for _, k := range []int{0, 1, most, most + 1, m} {
			if k > m {
				continue
			}
			list := rnd.Perm(m)[:k]
			for _, i := range list {
				b.set(i)
			}
			want := slices.Clone(list)
			slices.Sort(want)
			ascend(b, list)
			if !slices.Equal(list, want) {
				t.Fatalf("m %d, %d members: ascend lists %v, want %v", m, k, list, want)
			}
			for _, i := range list {
				b.unset(i)
			}
		}
	}
}
