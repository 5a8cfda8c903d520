package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// decodeLP deterministically builds a small bounded LP from a fuzz
// byte string: two header bytes pick the shape, then each byte feeds
// one objective coefficient, bound, or matrix entry. Every input maps
// to a structurally valid problem (lo <= hi everywhere), so the fuzzer
// explores the solver's numerical paths rather than AddRow validation.
func decodeLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%8
	m := 1 + next()%6
	p := NewProblem()
	for j := 0; j < n; j++ {
		obj := float64(next()-128) / 16
		lo := float64(next()%32) / 4
		hi := lo + float64(next()%64)/4
		if next()%8 == 0 {
			hi = Inf // an occasional free direction
		}
		p.AddCol(obj, lo, hi)
	}
	for r := 0; r < m; r++ {
		var cols []int
		var vals []float64
		for j := 0; j < n; j++ {
			if v := next() - 128; v != 0 {
				cols = append(cols, j)
				vals = append(vals, float64(v)/32)
			}
		}
		lo := float64(next()-128) / 2
		hi := lo + float64(next())/2
		switch next() % 4 {
		case 0:
			lo = math.Inf(-1) // one-sided <=
		case 1:
			hi = lo // equation
		}
		p.AddRow(lo, hi, cols, vals)
	}
	return p
}

// solveChecked is p.Solve(&o) that also checks, on the final basis,
// the sets the pivot loops keep up to date against fresh scans: the
// infeasible rows always, and the devex candidates when the solve
// ended optimal in the devex loop (not handed to Bland's rule).
func solveChecked(t *testing.T, p *Problem, o Options) (*Solution, error) {
	o.fill(p)
	s := newSimplex(p, &o)
	sol, err := s.solve()
	if err != nil {
		return sol, err
	}
	checkInfeasibleSet(t, s)
	if sol.Status == Optimal && !s.bland {
		checkDevexCandidates(t, s)
	}
	return sol, err
}

// checkRecycledResolve solves p, fixes column k mod n at its lower
// bound and re-solves warm twice: on p, which recycles the first
// solve's workspace, and on a clone, which builds a fresh one. The two
// must end bit for bit alike.
func checkRecycledResolve(t *testing.T, p *Problem, k int) {
	t.Helper()
	first, err := p.Solve(&Options{MaxIters: 5000})
	if err != nil {
		return
	}
	k %= p.NumCols()
	lo, _ := p.Bounds(k)
	p.SetBounds(k, lo, lo)
	o := Options{MaxIters: 5000, WarmBasis: first.Basis}
	want, wantErr := p.Clone().Solve(&o)
	got, err := p.Solve(&o)
	sameSolve(t, "re-solve after a bound edit", got, want, err, wantErr)
}

// FuzzSolve checks the simplex invariant on arbitrary bounded LPs: a
// solve must never panic, any claimed Optimal point must actually
// satisfy every bound and row of the problem it was asked about, the
// default solve (the cold dual, when the crash basis is dual feasible)
// must agree with the two-phase primal and with a solve whose
// refactorizations come every 8 etas instead of by the work clock,
// and a re-solve on a recycled workspace must match one on a fresh
// workspace (checkRecycledResolve).
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 200, 0, 8, 0, 100, 4, 4, 0, 50, 0, 12, 1})
	f.Add([]byte{7, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add([]byte{0, 0, 128, 128, 128})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	// Degenerate-cycling shape: 8 identical columns against 6 identical
	// equality rows, every vertex massively degenerate and the basis
	// repeatedly singular. This is the compact analogue of the presolved
	// allocator ILP that once span for 85k+ zero-step pivots before the
	// leaving-side Bland rule landed; it keeps both the anti-cycling
	// hand-off and the LU repair path in the corpus.
	cyc := []byte{7, 5}
	for j := 0; j < 8; j++ {
		cyc = append(cyc, 120, 0, 4, 1)
	}
	for r := 0; r < 6; r++ {
		cyc = append(cyc, 160, 160, 160, 160, 160, 160, 160, 160, 130, 0, 1)
	}
	f.Add(cyc)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("oversized input")
		}
		checkRecycledResolve(t, decodeLP(data), len(data))
		p := decodeLP(data)
		sol, err := solveChecked(t, p, Options{MaxIters: 5000})
		if err != nil {
			// Errors are allowed (e.g. persistent instability); panics
			// and false Optimal claims are not.
			return
		}
		decided := func(st Status) bool {
			return st == Optimal || st == Infeasible || st == Unbounded
		}
		// The work clock only decides when to refactorize: a fixed
		// cadence must reach the same verdict and optimum.
		gap, gerr := solveChecked(t, p, Options{MaxIters: 5000, RefactorGap: 8})
		if gerr == nil && decided(sol.Status) && decided(gap.Status) {
			if sol.Status != gap.Status {
				t.Fatalf("work clock %v, RefactorGap 8 %v", sol.Status, gap.Status)
			}
			if sol.Status == Optimal && math.Abs(sol.Obj-gap.Obj) > 1e-5*(1+math.Abs(gap.Obj)) {
				t.Fatalf("work clock objective %v, RefactorGap 8 %v", sol.Obj, gap.Obj)
			}
		}
		// Whenever the crash basis is dual feasible, the default solve ran
		// the cold dual on perturbed costs: the two-phase primal must
		// reach the same verdict and optimum.
		ref, rerr := solveChecked(t, p, Options{MaxIters: 5000, Method: MethodPrimal})
		if rerr == nil && decided(sol.Status) && decided(ref.Status) {
			if sol.Status != ref.Status {
				t.Fatalf("default %v, primal %v", sol.Status, ref.Status)
			}
			if sol.Status == Optimal && math.Abs(sol.Obj-ref.Obj) > 1e-5*(1+math.Abs(ref.Obj)) {
				t.Fatalf("default objective %v, primal %v", sol.Obj, ref.Obj)
			}
		}
		if sol.Basis != nil {
			// On the final basis and the update file stacked on its
			// factorization, the hypersparse solves and the row-wise
			// pivot row must match the dense kernels bit for bit.
			var o Options
			o.fill(p)
			s := newSimplex(p, &o)
			if s.loadBasis(sol.Basis) {
				adopted, _ := s.adoptFactor(sol.Basis)
				if adopted || s.refactor() == nil {
					checkSparseSolves(t, s, rand.New(rand.NewSource(int64(len(data)))))
				}
			}
		}
		if sol.Status != Optimal {
			return
		}
		const tol = 1e-5
		if len(sol.X) != p.NumCols() {
			t.Fatalf("optimal solution has %d values for %d columns", len(sol.X), p.NumCols())
		}
		act := make([]float64, p.NumRows())
		for j, x := range sol.X {
			lo, hi := p.Bounds(j)
			if x < lo-tol || x > hi+tol {
				t.Fatalf("x[%d] = %v outside [%v, %v]", j, x, lo, hi)
			}
			for _, nz := range p.Col(j) {
				act[nz.Row] += nz.Val * x
			}
		}
		for r, a := range act {
			lo, hi := p.RowBounds(r)
			if a < lo-tol || a > hi+tol {
				t.Fatalf("row %d activity %v outside [%v, %v]", r, a, lo, hi)
			}
		}
		// Route the follow-up solve through the dual simplex: tighten
		// bounds the way branch and bound does (fix one variable near its
		// optimal value, or halve every column's distance above its lower
		// bound, which cuts off the optimal vertex unless it sits at the
		// lower corner — the choice and the target derived from the
		// input), then compare a cold forced-primal solve against a warm
		// default (dual) solve. The two paths must agree on status and,
		// when optimal, on objective.
		pick := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		q := p.Clone()
		if pick(0)%2 == 0 {
			k := int(pick(1)) % q.NumCols()
			lo, hi := q.Bounds(k)
			v := math.Round(sol.X[k])
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			q.SetBounds(k, v, v)
		} else {
			for j, x := range sol.X {
				lo, _ := q.Bounds(j)
				q.SetBounds(j, lo, lo+max(x-lo, 0)/2)
			}
		}
		cold, cerr := solveChecked(t, q, Options{MaxIters: 5000, Method: MethodPrimal})
		warm, werr := solveChecked(t, q, Options{MaxIters: 5000, WarmBasis: sol.Basis})
		if cerr != nil || werr != nil {
			return // instability is allowed; disagreement is not
		}
		if !decided(cold.Status) || !decided(warm.Status) {
			return // an iteration/deadline halt decides nothing
		}
		if cold.Status != warm.Status {
			t.Fatalf("primal/dual disagree: cold primal %v, warm dual %v", cold.Status, warm.Status)
		}
		if cold.Status == Optimal {
			if diff := math.Abs(cold.Obj - warm.Obj); diff > 1e-5*(1+math.Abs(cold.Obj)) {
				t.Fatalf("primal/dual objective mismatch: %v vs %v", cold.Obj, warm.Obj)
			}
		}
	})
}

// FuzzDualRatioTest checks the heap's partial bound-flipping ratio
// test against a walk over a full sort under cmpDualCand (refRatioTest)
// on fuzzed candidate sets, in the decoded order and reversed. One
// header byte picks the slope; then each candidate takes three bytes:
// its ratio and |α| from few values, so exact ties are common, and its
// bound range (infinite, zero or finite).
func FuzzDualRatioTest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{40, 0, 1, 2, 0, 1, 2, 4, 3, 0})
	f.Add([]byte{255, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{3, 7, 0, 3, 7, 0, 3, 2, 2, 1, 9, 9, 9, 5, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		slope := float64(data[0]) / 16
		data = data[1:]
		var cands []dualCand
		var rng []float64
		for j := 0; len(data) >= 3 && j < 64; j++ {
			cands = append(cands, dualCand{j, float64(data[0]%8) / 4, float64(1 + data[1]%4)})
			switch r := data[2] % 4; r {
			case 0:
				rng = append(rng, math.Inf(1))
			default:
				rng = append(rng, float64(r-1)/2)
			}
			data = data[3:]
		}
		rangeOf := func(j int) float64 { return rng[j] }
		checkRatioTest(t, cands, slope, rangeOf, nil)
		slices.Reverse(cands)
		checkRatioTest(t, cands, slope, rangeOf, nil)
	})
}
