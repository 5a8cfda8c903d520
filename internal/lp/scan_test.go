package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The pivot loops keep four structures up to date from each pivot's
// sparse support instead of rescanning: the infeasible rows (phase 1),
// the dual's leaving-row heap, the devex candidates and the eta row
// index (btranRho). The tests here hold each one to the full scan it
// replaced, which lives only in this file.

// refPriceDevex is the full scan priceDevex replaced: every variable in
// ascending order, the first best score winning.
func refPriceDevex(s *simplex, tol float64) (int, float64) {
	enter := -1
	var enterDir, best float64
	for j := 0; j < s.n+s.m; j++ {
		d := s.d[j]
		_, dir := dantzigScore(s.state[j], d, tol)
		if dir == 0 {
			continue
		}
		if score := d * d / s.gamma[j]; score > best {
			best, enter, enterDir = score, j, dir
		}
	}
	return enter, enterDir
}

// refDualLeaving is the full scan dualLeaving replaced: every row in
// ascending order, the first best score winning.
func refDualLeaving(s *simplex, tol float64) (int, float64) {
	r := -1
	var delta, best float64
	for i := 0; i < s.m; i++ {
		x := s.xB[i]
		j := s.basis[i]
		var v float64
		if lo := s.lob(j); x < lo-tol {
			v = x - lo
		} else if hi := s.hib(j); x > hi+tol {
			v = x - hi
		} else {
			continue
		}
		if score := v * v / s.rowW[i]; score > best {
			best, r, delta = score, i, v
		}
	}
	return r, delta
}

// checkInfeasibleSet asserts that the pruned infeasible set holds
// exactly the rows whose basic value is outside its bounds, and that
// phase 1's sum over it has the bits of infeasibility().
func checkInfeasibleSet(t testing.TB, s *simplex) {
	t.Helper()
	want := s.infeasibility()
	if got := s.phase1Infeasibility(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("infeasible-set sum %v (bits %x), full scan %v (bits %x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for r := 0; r < s.m; r++ {
		if violated := s.violation(r) != 0; violated != s.infeas.in.has(r) {
			t.Fatalf("row %d: violated %v, in the pruned infeasible set %v", r, violated, s.infeas.in.has(r))
		}
	}
}

// checkDevexCandidates asserts that priceDevex picks what the full
// scan picks and that, pruned, its candidate list holds exactly the
// eligible nonbasics.
func checkDevexCandidates(t testing.TB, s *simplex) {
	t.Helper()
	tol := feasTol
	wantJ, wantDir := refPriceDevex(s, tol)
	if gotJ, gotDir := s.priceDevex(tol); gotJ != wantJ || gotDir != wantDir {
		t.Fatalf("devex pick (%d, %v), full scan (%d, %v)", gotJ, gotDir, wantJ, wantDir)
	}
	for j := 0; j < s.n+s.m; j++ {
		_, dir := dantzigScore(s.state[j], s.d[j], tol)
		if eligible := dir != 0; eligible != s.cand.in.has(j) {
			t.Fatalf("variable %d: eligible %v, in the pruned candidate list %v", j, eligible, s.cand.in.has(j))
		}
	}
}

// checkDualLeaving asserts that the dual's leaving-row choice from the
// heap is the full scan's: the row and the bits of its violation.
func checkDualLeaving(t testing.TB, s *simplex) {
	t.Helper()
	tol := feasTol
	wantR, wantDelta := refDualLeaving(s, tol)
	if gotR, gotDelta := s.dualLeaving(); gotR != wantR || math.Float64bits(gotDelta) != math.Float64bits(wantDelta) {
		t.Fatalf("dual leaving row (%d, %v), full scan (%d, %v)", gotR, gotDelta, wantR, wantDelta)
	}
}

// phase1LP is randomSparseLP made to need phase 1: some column boxes
// widen, and the row ranges are set around the activity of a random
// point of the box (an equation, a range or a ≤ row), so the problem
// is feasible while the all-slack crash point usually is not. Half of
// the point's coordinates sit at zero, which makes degenerate pivots.
func phase1LP(rng *rand.Rand, m, n int) *Problem {
	p := randomSparseLP(rng, m, n)
	act := make([]float64, m)
	for j := 0; j < n; j++ {
		if rng.Intn(3) == 0 {
			p.hi[j] = 3
		}
		x := 0.0 // at its bound half the time: degenerate vertices
		if rng.Intn(2) == 0 {
			x = float64(1+rng.Intn(3)) * p.hi[j] / 4
		}
		for _, nz := range p.Col(j) {
			act[nz.Row] += nz.Val * x
		}
	}
	for i, a := range act {
		switch rng.Intn(3) {
		case 0:
			p.a.rowLo[i], p.a.rowHi[i] = a, a
		case 1:
			p.a.rowLo[i], p.a.rowHi[i] = a-0.25, a+0.5
		case 2:
			p.a.rowLo[i], p.a.rowHi[i] = math.Inf(-1), a
		}
	}
	return p
}

// maintainedTally counts the events TestMaintainedSetsMatchScans must
// have stepped through.
type maintainedTally struct {
	phase1, devex, dual, flips, refactors, blandPhase1, blandHandoff int
	// dual pivots checked after bound flips and after refactorizations
	dualFlips, dualRefactors int
}

// TestMaintainedSetsMatchScans steps the phase-1, devex and dual loops
// one pivot at a time on random sparse LPs, with a small RefactorGap,
// through bound flips, refactorizations and the Bland hand-off. After
// every pivot it checks each maintained set against its full scan (and
// after every dual pivot the heap's leaving row), and
// btranRho, which skips the etas the eta row index does not link to
// its support, against dense btran (checkSparseSolves).
//
// The phase-1 and Bland loops keep no state across calls but the
// simplex, so they are stepped by raising MaxIters one iteration per
// call. runDevex and runDual initialize their pricing on entry, so the
// state after k of their pivots comes from a fresh solve run to that
// many iterations.
func TestMaintainedSetsMatchScans(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var tally maintainedTally
	for trial := 0; trial < 80; trial++ {
		m := 4 + rng.Intn(16)
		p := phase1LP(rng, m, m+rng.Intn(2*m))
		gap := 2 + rng.Intn(6)
		bland := trial%4 == 3 // Bland's rule in phase 1, and an early hand-off in phase 2
		stepMaintained(t, p, gap, bland, rng, &tally)
	}
	t.Logf("%+v", tally)
	if tally.phase1 == 0 || tally.devex == 0 || tally.dual == 0 || tally.flips == 0 ||
		tally.refactors == 0 || tally.blandPhase1 == 0 || tally.blandHandoff == 0 ||
		tally.dualFlips == 0 || tally.dualRefactors == 0 {
		t.Fatalf("some path was never stepped: %+v", tally)
	}
}

// newStepSimplex returns a simplex on the crash basis of p, factorized,
// with RefactorGap gap. With bland set, Bland's rule is on from the
// first pivot.
func newStepSimplex(t *testing.T, p *Problem, gap int, bland bool) *simplex {
	t.Helper()
	o := Options{RefactorGap: gap}
	o.fill(p)
	s := newSimplex(p, &o)
	s.crashBasis()
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	s.bland = bland
	return s
}

// stepRun advances s.run by one iteration and reports its status and
// whether that iteration was a bound flip.
func stepRun(t *testing.T, s *simplex, phase1 bool) (Status, bool) {
	t.Helper()
	before := append([]int(nil), s.basis...)
	s.opts.MaxIters = s.iter + 1
	st, err := s.run(phase1)
	if err != nil {
		t.Fatal(err)
	}
	flip := st == IterLimit && slices.Equal(before, s.basis)
	return st, flip
}

func stepMaintained(t *testing.T, p *Problem, gap int, bland bool, rng *rand.Rand, tally *maintainedTally) {
	// Phase 1, one pivot per call.
	s := newStepSimplex(t, p, gap, bland)
	checkInfeasibleSet(t, s)
	for {
		refactors := s.refactors
		st, flip := stepRun(t, s, true)
		if st != IterLimit {
			break
		}
		tally.phase1++
		if flip {
			tally.flips++
		}
		tally.refactors += s.refactors - refactors
		if s.bland {
			tally.blandPhase1++
		}
		checkInfeasibleSet(t, s)
		checkSparseSolves(t, s, rng)
	}
	if s.infeasibility() > 1e-5 {
		return // infeasible: no phase 2
	}
	phase1Iters := s.iter

	// Devex: after k pivots, for k = 1, 2, ... until the loop stops.
	var opt *Basis
	for k := 1; ; k++ {
		s := newStepSimplex(t, p, gap, bland)
		if _, err := s.run(true); err != nil || s.iter != phase1Iters {
			t.Fatalf("phase 1 did not repeat: %d iterations, want %d (%v)", s.iter, phase1Iters, err)
		}
		if bland {
			s.degenerate = 1000 // the first degenerate pivot hands off
		}
		s.opts.MaxIters = s.iter + k
		refactors := s.refactors
		st, err := s.runDevex()
		if err != nil {
			t.Fatal(err)
		}
		tally.refactors += s.refactors - refactors
		checkInfeasibleSet(t, s)
		checkSparseSolves(t, s, rng)
		if st == blandSwitch {
			// The Bland-guarded loop finishes the phase, one pivot per
			// call; it prices by a full scan and keeps only the
			// infeasible set.
			tally.blandHandoff++
			for {
				st, flip := stepRun(t, s, false)
				if st != IterLimit {
					break
				}
				if flip {
					tally.flips++
				}
				checkInfeasibleSet(t, s)
				checkSparseSolves(t, s, rng)
			}
			break
		}
		checkDevexCandidates(t, s)
		if st != IterLimit {
			if st == Optimal {
				opt = s.snapshot()
			}
			break
		}
		tally.devex++
	}
	if opt == nil {
		return
	}

	// Dual: branch up on the first fractional structural, or else fix a
	// random one at the other end of its box, and re-solve warm from the
	// optimal basis. After k dual pivots, for k = 1, 2, ...
	q := p.Clone()
	x := make([]float64, q.NumCols())
	{
		var o Options
		o.fill(q)
		s := newSimplex(q, &o)
		s.loadBasis(opt)
		if err := s.refactor(); err != nil {
			t.Fatal(err)
		}
		for j := range x {
			x[j] = s.value(j)
		}
	}
	col := -1
	for j, v := range x {
		if v-math.Floor(v) > 1e-6 && math.Ceil(v)-v > 1e-6 {
			col = j
			break
		}
	}
	if col >= 0 {
		q.SetBounds(col, math.Ceil(x[col]), q.hi[col])
	} else {
		col = rng.Intn(q.NumCols())
		if x[col] > q.lo[col] {
			q.SetBounds(col, q.lo[col], q.lo[col])
		} else {
			q.SetBounds(col, q.hi[col], q.hi[col])
		}
	}
	for k := 1; k < 200; k++ {
		o := Options{RefactorGap: gap}
		o.fill(q)
		s := newSimplex(q, &o)
		if !s.loadBasis(opt) {
			t.Fatal("optimal basis rejected")
		}
		if err := s.refactor(); err != nil {
			t.Fatal(err)
		}
		checkInfeasibleSet(t, s)
		s.opts.MaxIters = k
		flips, refactors := s.boundFlips, s.refactors
		st, err := s.runDual()
		if err != nil {
			t.Fatal(err)
		}
		if st != IterLimit {
			break
		}
		tally.dual++
		tally.flips += s.boundFlips - flips
		tally.refactors += s.refactors - refactors
		if s.boundFlips > flips {
			tally.dualFlips++
		}
		if s.refactors > refactors {
			tally.dualRefactors++
		}
		checkInfeasibleSet(t, s)
		checkDualLeaving(t, s)
		checkSparseSolves(t, s, rng)
	}
}

// TestPicksBreakTiesToLowestIndex hands priceDevex and dualLeaving
// equal scores with the lowest index neither first nor last in list
// order: each must pick it, as the ascending full scan does.
func TestPicksBreakTiesToLowestIndex(t *testing.T) {
	p := NewProblem()
	var cols []int
	for j := 0; j < 6; j++ {
		cols = append(cols, p.AddCol(0, 0, 1))
	}
	for i := 0; i < 4; i++ {
		p.AddRow(1, 2, cols, []float64{1, 1, 1, 1, 1, 1})
	}
	var o Options
	o.fill(p)
	s := newSimplex(p, &o)
	s.crashBasis()
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	s.initPricing()
	for _, j := range []int{3, 2, 5, 4} {
		s.d[j], s.gamma[j] = -2, 4
		s.cand.touch(j)
	}
	s.gamma[3] = 1 // the best score, d²/γ = 4
	s.d[4] = -1    // d²/γ = 1/4 < 1
	if j, _ := s.priceDevex(feasTol); j != 3 {
		t.Fatalf("devex picked %d, want 3 (the only best score)", j)
	}
	s.gamma[3] = 4 // ties 2, 3 and 5 at d²/γ = 1
	if j, _ := s.priceDevex(feasTol); j != 2 {
		t.Fatalf("devex picked %d among ties 3, 2, 5, want 2", j)
	}
	if j, _ := refPriceDevex(s, feasTol); j != 2 {
		t.Fatalf("full scan picked %d, want 2", j)
	}

	// Every row's slack sits at 0 below its lower bound 1: equal
	// violations. The heap is built by its rebuild path; then rows 2, 1
	// and 3 are re-scored in that order, as after a step that moved
	// them, which pushes the tied entries again behind stale ones.
	s.rowW = []float64{2, 1, 1, 1} // row 0 scores lower
	s.rebuildChuzr()
	if r, _ := s.dualLeaving(); r != 1 {
		t.Fatalf("dual picked row %d among ties 1, 2, 3 after a rebuild, want 1", r)
	}
	s.w.clear()
	for _, r := range []int{2, 1, 3} {
		s.w.x[r] = 1
		s.w.touch(r)
	}
	s.rescoreW()
	if r, _ := s.dualLeaving(); r != 1 {
		t.Fatalf("dual picked row %d among ties 2, 1, 3, want 1", r)
	}
	if r, _ := refDualLeaving(s, feasTol); r != 1 {
		t.Fatalf("full scan picked row %d, want 1", r)
	}
}

// TestRowCopySharedPerMatrix checks that concurrent solves of one
// Problem and of its clones read one frozen matrix, row-wise copy
// included (run under -race), and end bit for bit where the first
// solve did, whether they recycled the Problem's workspace or built
// their own.
func TestRowCopySharedPerMatrix(t *testing.T) {
	p := buildAssignment(8, 7)
	want, err := p.Solve(nil)
	if err != nil || want.Status != Optimal {
		t.Fatalf("solve: %v %v", want, err)
	}
	type result struct {
		sol *Solution
		a   *matrix
		err error
	}
	results := make(chan result, 8)
	for g := 0; g < 8; g++ {
		q := p
		if g%2 == 1 {
			q = p.Clone()
		}
		go func() {
			sol, err := q.Solve(nil)
			results <- result{sol, q.a, err}
		}()
	}
	for g := 0; g < 8; g++ {
		r := <-results
		sameSolve(t, "concurrent solve", r.sol, want, r.err, nil)
		if r.a != p.a {
			t.Fatal("a clone solved on a matrix of its own")
		}
	}
}
