package lp

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

// residualFtran checks B·ftran(v) ≈ v on the simplex's current basis
// representation, returning the largest componentwise error.
func residualFtran(s *simplex, v []float64) float64 {
	z := append([]float64(nil), v...)
	s.ftran(z)
	act := make([]float64, s.m)
	for r := 0; r < s.m; r++ {
		j := s.basis[r]
		if j < s.n {
			for _, nz := range s.a.col(j) {
				act[nz.Row] += nz.Val * z[r]
			}
		} else {
			act[j-s.n] -= z[r]
		}
	}
	worst := 0.0
	for i := range act {
		if d := math.Abs(act[i] - v[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// residualBtran checks Bᵀ·btran(v) ≈ v the same way.
func residualBtran(s *simplex, v []float64) float64 {
	y := append([]float64(nil), v...)
	s.btran(y)
	worst := 0.0
	for r := 0; r < s.m; r++ {
		j := s.basis[r]
		var dot float64
		if j < s.n {
			for _, nz := range s.a.col(j) {
				dot += nz.Val * y[nz.Row]
			}
		} else {
			dot = -y[j-s.n]
		}
		if d := math.Abs(dot - v[r]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestLUFactorSolvesAgainstBasis factorizes the optimal basis of a
// family of LPs and verifies ftran and btran against the basis matrix
// itself: B·ftran(v) = v and Bᵀ·btran(v) = v for random dense v. This
// pins the LU construction (elimination order, U coordinates, the
// transposed solves) independently of any pivoting behavior.
func TestLUFactorSolvesAgainstBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := buildAssignment(4+trial%5, int64(trial))
		sol, err := p.Solve(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, sol, err)
		}
		var o Options
		o.fill(p)
		s := newSimplex(p, &o)
		if !s.loadBasis(sol.Basis) {
			t.Fatalf("trial %d: snapshot rejected", trial)
		}
		if err := s.refactor(); err != nil {
			t.Fatalf("trial %d: refactor: %v", trial, err)
		}
		v := make([]float64, s.m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if d := residualFtran(s, v); d > 1e-8 {
			t.Fatalf("trial %d: ftran residual %g", trial, d)
		}
		if d := residualBtran(s, v); d > 1e-8 {
			t.Fatalf("trial %d: btran residual %g", trial, d)
		}
	}
}

// TestFTUpdatesKeepSolvesExact forces a tiny problem to stack many
// product-form update etas without refactorizing (huge RefactorGap) and
// checks the basis solves stay exact through the update file.
func TestFTUpdatesKeepSolvesExact(t *testing.T) {
	p := buildAssignment(8, 3)
	sol, err := p.Solve(&Options{RefactorGap: 1 << 20})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
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
	if len(s.updates) == 0 {
		t.Fatal("expected a non-empty update file (RefactorGap is huge)")
	}
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, s.m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if d := residualFtran(s, v); d > 1e-7 {
		t.Fatalf("ftran residual through %d updates: %g", len(s.updates), d)
	}
	if d := residualBtran(s, v); d > 1e-7 {
		t.Fatalf("btran residual through %d updates: %g", len(s.updates), d)
	}
}

// TestWarmAdoptionSkipsRefactorization re-solves from a snapshot of
// the same problem (the branch-and-bound pattern: a clone with a
// changed bound) and asserts the carried factorization was adopted:
// the warm solve performs no refactorization at all, which is exactly
// the lp/refactorizations < lp/solves acceptance property.
func TestWarmAdoptionSkipsRefactorization(t *testing.T) {
	p := buildAssignment(10, 21)
	sol, err := p.Solve(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v %v", sol, err)
	}
	q := p.Clone()
	q.SetBounds(0, 0, 0) // branch: fix one variable
	base := obs.TakeSnapshot()
	warm, err := q.Solve(&Options{WarmBasis: sol.Basis})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm solve: %v %v", warm, err)
	}
	d := obs.Since(base)
	if d["lp/solves"] != 1 {
		t.Fatalf("lp/solves = %d, want 1", d["lp/solves"])
	}
	if d["lp/refactorizations"] != 0 {
		t.Fatalf("lp/refactorizations = %d, want 0 (factorization adopted)", d["lp/refactorizations"])
	}
}

// TestMatrixSignatureGuardsAdoption warm-starts a solve of one matrix
// with a basis snapshot taken on a different matrix of identical
// shape. The basis itself is legal (shape-compatible) so it loads,
// but the carried factorization belongs to another frozen matrix and
// must be rejected — the solve refactorizes and still reaches the
// right optimum.
func TestMatrixSignatureGuardsAdoption(t *testing.T) {
	mk := func(c float64) *Problem {
		p := NewProblem()
		var cols []int
		var vals []float64
		for j := 0; j < 6; j++ {
			cols = append(cols, p.AddCol(-1-float64(j%3), 0, 1))
			vals = append(vals, 1+c*float64(j))
		}
		p.AddRow(math.Inf(-1), 3, cols, vals)
		p.AddRow(0.5, 2.5, cols[:3], vals[:3])
		return p
	}
	p1 := mk(0.5)
	p2 := mk(0.25) // same shape, different matrix coefficients
	sol1, err := p1.Solve(nil)
	if err != nil || sol1.Status != Optimal {
		t.Fatalf("p1: %v %v", sol1, err)
	}
	want, err := p2.Solve(nil)
	if err != nil || want.Status != Optimal {
		t.Fatalf("p2 cold: %v %v", want, err)
	}
	base := obs.TakeSnapshot()
	got, err := p2.Solve(&Options{WarmBasis: sol1.Basis})
	if err != nil || got.Status != Optimal {
		t.Fatalf("p2 warm: %v %v", got, err)
	}
	if math.Abs(got.Obj-want.Obj) > 1e-6 {
		t.Fatalf("foreign-factor warm solve: obj %v, want %v", got.Obj, want.Obj)
	}
	if d := obs.Since(base); d["lp/refactorizations"] < 1 {
		t.Fatalf("lp/refactorizations = %d, want >= 1 (foreign factorization must not be adopted)",
			d["lp/refactorizations"])
	}
}

// TestRefactorCadenceCounters drives a long solve and sanity-checks
// the new cadence counters: eta_updates tracks pivots, and the
// cadence accumulator divided by refactorizations is the average
// update depth a factorization served.
func TestRefactorCadenceCounters(t *testing.T) {
	base := obs.TakeSnapshot()
	p := buildAssignment(20, 9)
	sol, err := p.Solve(&Options{RefactorGap: 16})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	d := obs.Since(base)
	if d["lp/eta_updates"] == 0 {
		t.Fatal("lp/eta_updates = 0, want > 0")
	}
	if d["lp/refactorizations"] == 0 {
		t.Fatal("lp/refactorizations = 0")
	}
	if d["lp/refactor_cadence"] == 0 {
		t.Fatal("lp/refactor_cadence = 0, want > 0 with RefactorGap 16")
	}
}

// sameFloat reports whether a and b are the same float64: equal bits,
// or both zero. A dense solve can store -0 where the reach-restricted
// one leaves a +0 it never visited.
func sameFloat(a, b float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkSparseSolves asserts, on s's current factorization and update
// file, that the reach-restricted solves equal the dense ones bit for
// bit and keep every nonzero in the accumulator's support: ftranW of
// every column against ftran, btranRho of every unit vector and of one
// sparse ±1 vector (a phase-1 cost vector) against btran. It also
// checks that priceRow's row-wise pivot row equals a loop down every
// column.
func checkSparseSolves(t testing.TB, s *simplex, rng *rand.Rand) {
	t.Helper()
	dense := make([]float64, s.m)
	for j := 0; j < s.n+s.m; j++ {
		s.w.clear()
		s.scatterColumn(j)
		s.ftranW()
		clear(dense)
		s.column(j, func(r int, v float64) { dense[r] = v })
		s.ftran(dense)
		for i, v := range dense {
			if !sameFloat(s.w.x[i], v) || (v != 0 && !s.w.in.has(i)) {
				t.Fatalf("ftran of column %d, row %d: sparse %v (in support: %v), dense %v",
					j, i, s.w.x[i], s.w.in.has(i), v)
			}
		}
	}
	for r := 0; r <= s.m; r++ {
		s.rho.clear()
		clear(dense)
		if r < s.m {
			s.rho.x[r], dense[r] = 1, 1
			s.rho.touch(r)
		} else {
			for i := range dense {
				if rng.Intn(4) == 0 {
					c := float64(2*rng.Intn(2) - 1)
					s.rho.x[i], dense[i] = c, c
					s.rho.touch(i)
				}
			}
		}
		s.btranRho()
		s.btran(dense)
		for i, v := range dense {
			if !sameFloat(s.rho.x[i], v) || (v != 0 && !s.rho.in.has(i)) {
				t.Fatalf("btran of rhs %d, row %d: sparse %v (in support: %v), dense %v",
					r, i, s.rho.x[i], s.rho.in.has(i), v)
			}
		}
		s.priceRow()
		for j := 0; j < s.n+s.m; j++ {
			var a float64
			if j < s.n {
				for _, nz := range s.a.col(j) {
					a += dense[nz.Row] * nz.Val
				}
			} else {
				a = -dense[j-s.n]
			}
			if !sameFloat(s.alpha.x[j], a) || (a != 0 && !s.alpha.in.has(j)) {
				t.Fatalf("pivot row of rhs %d, column %d: row-wise %v (touched: %v), column loop %v",
					r, j, s.alpha.x[j], s.alpha.in.has(j), a)
			}
		}
	}
}

// randomSparseLP builds an m-row LP with 1–4 nonzeros per column. Some
// columns repeat an earlier column scaled by 2, so a random basis is
// often singular.
func randomSparseLP(rng *rand.Rand, m, n int) *Problem {
	p := NewProblem()
	rows := make([][]int, m)
	vals := make([][]float64, m)
	type entry struct {
		row int
		val float64
	}
	var cols [][]entry
	for j := 0; j < n; j++ {
		p.AddCol(rng.NormFloat64(), 0, 1)
		var c []entry
		if j > 0 && rng.Intn(5) == 0 {
			for _, e := range cols[rng.Intn(j)] {
				c = append(c, entry{e.row, 2 * e.val})
			}
		} else {
			seen := map[int]bool{}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				i := rng.Intn(m)
				if seen[i] {
					continue
				}
				seen[i] = true
				v := float64(1 + rng.Intn(3))
				if rng.Intn(3) == 0 {
					v = rng.NormFloat64()
				}
				if rng.Intn(2) == 0 {
					v = -v
				}
				c = append(c, entry{i, v})
			}
		}
		cols = append(cols, c)
		for _, e := range c {
			rows[e.row] = append(rows[e.row], j)
			vals[e.row] = append(vals[e.row], e.val)
		}
	}
	for i := 0; i < m; i++ {
		p.AddRow(0, 1, rows[i], vals[i])
	}
	return p
}

// TestSparseSolvesMatchDense pins the hypersparse kernels to the dense
// ones bit for bit on random sparse bases: fresh factorizations,
// factorizations whose singular columns the repair swapped for slacks,
// and product-form update etas stacked on both.
func TestSparseSolvesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	repaired := 0
	for trial := 0; trial < 60; trial++ {
		m := 5 + rng.Intn(36)
		if trial%10 == 0 {
			m = 200 + rng.Intn(200) // reaches both under and over reach's scan threshold
		}
		p := randomSparseLP(rng, m, m+rng.Intn(2*m))
		var o Options
		o.fill(p)
		s := newSimplex(p, &o)
		s.crashBasis()
		// A random basis: each row slot takes a structural with
		// probability 3/4, otherwise keeps its own slack.
		for r := 0; r < s.m; r++ {
			if rng.Intn(4) == 0 {
				continue
			}
			j := rng.Intn(s.n)
			if s.state[j] == stBasic {
				continue
			}
			old := s.basis[r]
			s.state[old], s.inRow[old] = stLower, -1
			s.basis[r], s.inRow[j], s.state[j] = j, r, stBasic
		}
		before := append([]int(nil), s.basis...)
		if err := s.refactor(); err != nil {
			continue // a repair conflict; the solve would restart from the crash basis
		}
		slices.Sort(before)
		after := append([]int(nil), s.basis...)
		slices.Sort(after)
		if !slices.Equal(before, after) {
			repaired++
		}
		checkSparseSolves(t, s, rng)
		// Stack updates: random entering columns, each leaving on the
		// largest entry of its FTRAN image.
		for u := 0; u < 12; u++ {
			q := rng.Intn(s.n + s.m)
			if s.state[q] == stBasic {
				continue
			}
			s.w.clear()
			s.scatterColumn(q)
			s.ftranW()
			r, best := -1, 1e-3
			for _, i := range s.w.nz {
				if a := math.Abs(s.w.x[i]); a > best {
					r, best = i, a
				}
			}
			if r < 0 {
				continue
			}
			leaving := s.basis[r]
			s.state[leaving], s.inRow[leaving] = stLower, -1
			s.basis[r], s.inRow[q], s.state[q] = q, r, stBasic
			s.pushEtaW(r)
		}
		checkSparseSolves(t, s, rng)
	}
	if repaired == 0 {
		t.Fatal("no trial went through the singular-basis repair")
	}
}

// TestPivotKernelsDoNotAllocate pins the steady state of a pivot's
// kernels: once the scratch is warm, an FTRAN of the entering column,
// the pricing update (unit BTRAN through the eta row index, row-wise
// pivot row, reduced cost, weight and candidate update), the devex
// pick over the candidate list, a dual pick after a step of the basic
// values (re-scoring the moved rows into the leaving-row heap), the
// dual's pivot row and heap ratio test, a listing of every row from
// the mark words and an update eta carved from an arena chunk
// allocate nothing.
func TestPivotKernelsDoNotAllocate(t *testing.T) {
	p := buildAssignment(12, 4)
	var o Options
	o.fill(p)
	s := newSimplex(p, &o)
	s.crashBasis()
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(true); err != nil {
		t.Fatal(err)
	}
	s.initPricing()
	q, r := -1, -1
	for j := 0; j < s.n && r < 0; j++ {
		if s.state[j] == stBasic {
			continue
		}
		s.w.clear()
		s.scatterColumn(j)
		s.ftranW()
		for _, i := range s.w.nz {
			if math.Abs(s.w.x[i]) > 1e-3 {
				q, r = j, i
				break
			}
		}
	}
	if r < 0 {
		t.Fatal("no entering column with a usable pivot")
	}
	if len(s.updates) == 0 {
		t.Fatal("phase 1 stacked no updates; the pin would miss the eta pass")
	}
	s.rowW = make([]float64, s.m)
	for i := range s.rowW {
		s.rowW[i] = 1
	}
	s.rebuildChuzr()
	// A second workspace holds one FTRAN image to push as an eta, again
	// and again, into the arena chunk its first push allocates.
	e := newSimplex(p, &o)
	e.crashBasis()
	if err := e.refactor(); err != nil {
		t.Fatal(err)
	}
	e.w.clear()
	e.scatterColumn(q)
	e.ftranW()
	er := e.w.nz[0]
	allocs := testing.AllocsPerRun(100, func() {
		s.w.clear()
		s.scatterColumn(q)
		s.ftranW()
		s.updatePricing(q, r)
		s.priceDevex(feasTol)
		s.stepXB(0)
		s.rescoreW()
		s.dualLeaving()
		s.pivotRow(r)
		s.dualRatio(1, 1)
		for k := s.m - 1; k >= 0; k-- {
			s.markStep(int32(k))
		}
		ascend(s.stepMark, s.steps)
		s.clearSteps()
		e.clearUpdates()
		e.pushEtaW(er)
	})
	if allocs != 0 {
		t.Fatalf("a pivot's kernels allocate %v times, want 0", allocs)
	}
	if len(s.cands) < 2 || s.stepMark.sorts(s.m) {
		t.Fatalf("the pin saw %d ratio-test candidates and %d rows listed by a sort, want a heap and the mark words",
			len(s.cands), s.m)
	}
	if len(e.etaIdx) < 100 || cap(e.etaIdx) != etaChunk {
		t.Fatalf("the etas filled %d of a %d-entry chunk, want one chunk", len(e.etaIdx), cap(e.etaIdx))
	}
}

// refFactorize is factorize with the column order it replaced: every
// basic column through eliminate, in the order a sort by (nonzero
// count, column id) gives.
func refFactorize(s *simplex) error {
	f := s.newFactor()
	s.orderBasis() // the static row counts eliminate reads
	order := slices.Clone(s.basis)
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(s.colNnz(a), s.colNnz(b)); c != 0 {
			return c
		}
		return a - b
	})
	for _, j := range order {
		s.eliminate(f, j)
	}
	return s.finishFactor(f)
}

// orderLP builds an m-row problem whose columns include the cases the
// counting order must get right: empty columns, pairs of singletons on
// one row (the order decides which one pivots), singletons below the
// 1e-7 pivot tolerance, and general columns of 2–4 entries, some of
// them repeats (singular bases).
func orderLP(rng *rand.Rand, m int) *Problem {
	type entry struct {
		row int
		val float64
	}
	var cols [][]entry
	for len(cols) < 2*m {
		switch k := rng.Intn(8); {
		case k == 0:
			cols = append(cols, nil)
		case k == 1:
			i := rng.Intn(m)
			cols = append(cols, []entry{{i, 2}}, []entry{{i, -1}})
		case k == 2:
			cols = append(cols, []entry{{rng.Intn(m), 1e-8}})
		case k == 3:
			cols = append(cols, []entry{{rng.Intn(m), float64(1 + rng.Intn(3))}})
		case k == 4 && len(cols) > 0:
			cols = append(cols, cols[rng.Intn(len(cols))])
		default:
			var c []entry
			for _, i := range rng.Perm(m)[:min(m, 2+rng.Intn(3))] {
				c = append(c, entry{i, rng.NormFloat64()})
			}
			cols = append(cols, c)
		}
	}
	p := NewProblem()
	rows := make([][]int, m)
	vals := make([][]float64, m)
	for j, c := range cols {
		p.AddCol(0, 0, 1)
		for _, e := range c {
			rows[e.row] = append(rows[e.row], j)
			vals[e.row] = append(vals[e.row], e.val)
		}
	}
	for i := 0; i < m; i++ {
		p.AddRow(0, 1, rows[i], vals[i])
	}
	return p
}

// TestFactorizeOrderMatchesSort holds factorize and its counting
// order to refFactorize on random bases mixing
// slacks with every kind of orderLP column: the same error, or the
// same pivot rows, step positions, L, U and diagonal bit for bit and
// the same repaired basis.
func TestFactorizeOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	seen := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(30)
		if trial%20 == 0 {
			m = 200 + rng.Intn(200)
		}
		p := orderLP(rng, m)
		var o Options
		o.fill(p)
		s, ref := newSimplex(p, &o), newSimplex(p, &o)
		s.crashBasis()
		for r := 0; r < s.m; r++ {
			if j := rng.Intn(s.n); rng.Intn(4) != 0 && s.state[j] != stBasic {
				old := s.basis[r]
				s.state[old], s.inRow[old] = stLower, -1
				s.basis[r], s.inRow[j], s.state[j] = j, r, stBasic
			}
		}
		copy(ref.state, s.state)
		copy(ref.basis, s.basis)
		copy(ref.inRow, s.inRow)
		onRow := map[int]int{} // basic singletons per row
		for _, j := range s.basis {
			if j >= s.n {
				onRow[j-s.n]++
			} else if len(p.Col(j)) == 1 {
				if onRow[p.Col(j)[0].Row]++; onRow[p.Col(j)[0].Row] == 2 {
					seen["two singletons on a row"]++
				}
			}
			switch c := s.colNnz(j); {
			case j >= s.n:
				seen["slack"]++
			case c == 0:
				seen["empty"]++
			case c == 1 && math.Abs(p.Col(j)[0].Val) < 1e-7:
				seen["tiny singleton"]++
			case c == 1:
				seen["singleton"]++
			}
		}
		err, refErr := s.factorize(), refFactorize(ref)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("trial %d: factorize error %v, sorted reference %v", trial, err, refErr)
		}
		if err != nil {
			seen["repair conflict"]++
			continue
		}
		if len(s.failed) > 0 {
			seen["failed columns"]++
		}
		f, g := s.lu, ref.lu
		same := slices.Equal(f.prow, g.prow) && slices.Equal(f.pos, g.pos) &&
			slices.Equal(f.lptr, g.lptr) && slices.Equal(f.lind, g.lind) &&
			slices.Equal(f.uptr, g.uptr) && slices.Equal(f.uind, g.uind) &&
			sameBits(f.lval, g.lval) && sameBits(f.uval, g.uval) && sameBits(f.udiag, g.udiag)
		if !same {
			t.Fatalf("trial %d (m=%d): the factor differs from the sorted reference's", trial, m)
		}
		if !slices.Equal(s.basis, ref.basis) || !slices.Equal(s.state, ref.state) || !slices.Equal(s.inRow, ref.inRow) {
			t.Fatalf("trial %d: the repaired basis differs from the sorted reference's", trial)
		}
	}
	t.Logf("basic columns and outcomes: %v", seen)
	for _, k := range []string{"slack", "empty", "tiny singleton", "singleton", "two singletons on a row", "failed columns"} {
		if seen[k] == 0 {
			t.Fatalf("no trial covered %q: %v", k, seen)
		}
	}
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}
