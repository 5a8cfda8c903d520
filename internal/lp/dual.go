package lp

import (
	"math"
	"time"
)

// Bounded-variable dual simplex. A warm-started node re-solve in
// branch and bound starts from the parent's optimal basis: a bound
// change or an appended cut row leaves that basis dual feasible (the
// reduced costs are untouched; a new row's slack enters with a zero
// multiplier) while the primal point violates the new bound. The dual
// simplex iterates directly on that structure — pick the most
// violated basic variable, price its row, ratio-test on the reduced
// costs — instead of re-entering primal phase 1 from scratch. A cold
// solve whose crash basis is dual feasible starts here too, on costs
// solveOnce has perturbed (DESIGN.md §11).
//
// Robustness: the dual-unbounded conclusion ("no entering candidate
// ⇒ primal infeasible") depends only on the signs of the pivot-row
// coefficients and the nonbasic states, never on the incrementally
// maintained reduced costs, so maintained-cost drift cannot produce a
// false Infeasible. Anything the loop distrusts — a start that is not
// dual feasible, a vanishing pivot, an ftran/btran disagreement, a
// degenerate stall — returns dualBail and the primal phases finish
// the solve; the answer never depends on the dual path being taken.

// dualStallLimit bounds consecutive degenerate (θ≈0) dual pivots
// before the loop defers to the primal, which owns the full Bland
// anti-cycling machinery.
const dualStallLimit = 400

// dualCand is one eligible entering candidate in the bound-flip ratio
// test: its dual ratio (the breakpoint where its reduced cost changes
// sign) and |α| (its weight in the slope of the dual objective).
type dualCand struct {
	j          int
	ratio, abs float64
}

// cmpDualCand orders breakpoints by ratio, then by |α| descending for
// stability on ties, then by ascending j. It is a total order, so the
// order the candidates are collected in cannot change the ratio test.
func cmpDualCand(a, b dualCand) int {
	switch {
	case a.ratio != b.ratio:
		if a.ratio < b.ratio {
			return -1
		}
		return 1
	case a.abs != b.abs:
		if a.abs > b.abs {
			return -1
		}
		return 1
	}
	return a.j - b.j
}

// candDown sifts h[k] down the min-heap h under cmpDualCand.
func candDown(h []dualCand, k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && cmpDualCand(h[c+1], h[c]) < 0 {
			c++
		}
		if cmpDualCand(h[c], h[k]) >= 0 {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// ratioTest is the bound-flipping ratio test (long-step dual) over
// the breakpoints cands, from a dual slope of slope: it walks them in
// cmpDualCand order, flipping each boxed candidate whose flip to its
// opposite bound (gain |α|·rng(j), rng(j) its bound range) leaves the
// slope above 1e-9, and enters the first one the slope cannot pass.
// It returns that candidate's column and ratio, or -1 when every
// candidate flips (a dual ray), with the flips in walk order appended
// to flips[:0]. The walk is partial: cands is heapified in place in
// O(k) and only the breakpoints walked past are popped, so a test
// that enters early never pays for a full sort. The result is the
// walk over a full sort's order, as cmpDualCand is total.
func ratioTest(cands []dualCand, slope float64, rng func(j int) float64, flips []int) (enter int, ratio float64, _ []int) {
	h := cands
	for k := len(h)/2 - 1; k >= 0; k-- {
		candDown(h, k)
	}
	flips = flips[:0]
	for len(h) > 0 {
		c := h[0]
		r := rng(c.j)
		if gain := c.abs * r; !math.IsInf(r, 1) && slope-gain > 1e-9 {
			flips = append(flips, c.j)
			slope -= gain
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			candDown(h, 0)
			continue
		}
		return c.j, c.ratio, flips
	}
	return -1, 0, flips
}

// dualRatio collects the pivot row's breakpoints into s.cands and
// runs the ratio test on them from slope, leaving the flips in
// s.flips. Every eligible nonbasic (at-lower needs sgn·α > 0,
// at-upper sgn·α < 0, free either) is a breakpoint at ratio
// d_j/(sgn·α_j) where the dual objective's slope changes. Candidates
// come in α's support order, which the total order makes immaterial.
func (s *simplex) dualRatio(sgn, slope float64) (enter int, ratio float64) {
	cands := s.cands[:0]
	for _, j := range s.alpha.nz {
		st := s.state[j]
		if st == stBasic {
			continue
		}
		a := s.alpha.x[j]
		sa := sgn * a
		var ratio float64
		switch st {
		case stLower:
			if sa <= 1e-9 {
				continue
			}
			ratio = s.d[j] / sa
		case stUpper:
			if sa >= -1e-9 {
				continue
			}
			ratio = s.d[j] / sa
		default: // free at zero
			if sa < 1e-9 && sa > -1e-9 {
				continue
			}
			ratio = math.Abs(s.d[j]) / math.Abs(sa)
		}
		if ratio < 0 {
			ratio = 0 // tolerance noise in d
		}
		cands = append(cands, dualCand{j, ratio, math.Abs(a)})
	}
	s.cands = cands
	enter, ratio, s.flips = ratioTest(cands, slope, s.boundRange, s.flips)
	return enter, ratio
}

// boundRange returns variable j's bound range hi - lo.
func (s *simplex) boundRange(j int) float64 { return s.hib(j) - s.lob(j) }

// dualFeasible reports whether the current nonbasic reduced costs
// satisfy the dual sign conditions to tolerance dtol.
func (s *simplex) dualFeasible(dtol float64) bool {
	for j := 0; j < s.n+s.m; j++ {
		d := s.d[j]
		switch s.state[j] {
		case stLower:
			if d < -dtol {
				return false
			}
		case stUpper:
			if d > dtol {
				return false
			}
		case stZero:
			if d > dtol || d < -dtol {
				return false
			}
		}
	}
	return true
}

// The dual's leaving row (CHUZR) is the basic with the largest
// dual-devex weighted violation v²/rowW of a bound by more than feasTol,
// ties to the lowest row. A max-heap keeps every such row under that
// order, so a pick reads the top instead of scanning the infeasible
// set. A row's score depends only on its x_B, its weight and its basic
// variable's bounds, and between picks those change only on the rows
// stepXB moves: the support of the flips' and of the entering column's
// FTRAN images, which includes the pivot row. runDual re-scores just
// those rows after each step (rescoreW) and rebuilds the heap wherever
// x_B or all the weights are reset. A re-score bumps the row's version
// stamp, which makes its older entries stale; stale entries are
// dropped when they reach the top, and the heap is compacted when they
// outnumber the live ones.

// chuzrEnt is a heap entry: row's score and signed violation v when
// it was scored, current while ver equals the row's stamp.
type chuzrEnt struct {
	score, v float64
	row      int32
	ver      uint32
}

// before orders the heap: higher score first, then lower row.
func (a *chuzrEnt) before(b *chuzrEnt) bool {
	return a.score > b.score || (a.score == b.score && a.row < b.row)
}

// chuzrHeap is the leaving-row heap, with one version stamp per row
// and a flag for the rows whose current stamp has an entry.
type chuzrHeap struct {
	h     []chuzrEnt
	ver   []uint32
	live  []bool
	nlive int
}

// clear drops every entry.
func (q *chuzrHeap) clear() {
	for _, e := range q.h {
		q.live[e.row] = false
	}
	q.h = q.h[:0]
	q.nlive = 0
}

func (q *chuzrHeap) up(k int) {
	h := q.h
	for k > 0 {
		p := (k - 1) / 2
		if !h[k].before(&h[p]) {
			return
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
}

func (q *chuzrHeap) down(k int) {
	h := q.h
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// heapify restores the heap order over all of h.
func (q *chuzrHeap) heapify() {
	for k := len(q.h)/2 - 1; k >= 0; k-- {
		q.down(k)
	}
}

// pop removes the top entry.
func (q *chuzrHeap) pop() {
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	q.down(0)
}

// compact drops the stale entries.
func (q *chuzrHeap) compact() {
	kept := q.h[:0]
	for _, e := range q.h {
		if e.ver == q.ver[e.row] {
			kept = append(kept, e)
		}
	}
	q.h = kept
	q.heapify()
}

// pushRow adds row i's entry at its current stamp when the row is
// violated by more than feasTol with a positive score — the rows an
// ascending scan from a best score of zero can pick. It reports
// whether it added one.
func (s *simplex) pushRow(i int) bool {
	tol := feasTol
	x := s.xB[i]
	j := s.basis[i]
	var v float64
	if lo := s.lob(j); x < lo-tol {
		v = x - lo
	} else if hi := s.hib(j); x > hi+tol {
		v = x - hi
	} else {
		return false
	}
	score := v * v / s.rowW[i]
	if !(score > 0) {
		return false
	}
	q := &s.chuzr
	q.h = append(q.h, chuzrEnt{score: score, v: v, row: int32(i), ver: q.ver[i]})
	q.live[i] = true
	q.nlive++
	return true
}

// rebuildChuzr scores every row of the infeasible set (a superset of
// the violated rows) into an emptied heap.
func (s *simplex) rebuildChuzr() {
	q := &s.chuzr
	if q.ver == nil {
		q.ver = make([]uint32, s.m)
		q.live = make([]bool, s.m)
	}
	q.clear()
	for _, i := range s.infeas.nz {
		s.pushRow(i)
	}
	q.heapify()
}

// rescoreW re-scores the rows the last stepXB moved: every row of the
// FTRAN accumulator's support with a nonzero entry.
func (s *simplex) rescoreW() {
	q := &s.chuzr
	for _, i := range s.w.nz {
		if s.w.x[i] == 0 {
			continue
		}
		q.ver[i]++
		if q.live[i] {
			q.live[i] = false
			q.nlive--
		}
		if s.pushRow(i) {
			q.up(len(q.h) - 1)
		}
	}
	if len(q.h)-q.nlive > q.nlive {
		q.compact()
	}
}

// dualLeaving returns the dual simplex's leaving row and its signed
// violation, or -1 when no row is violated by more than feasTol: the top
// of the heap once its stale entries are gone.
func (s *simplex) dualLeaving() (r int, delta float64) {
	q := &s.chuzr
	for len(q.h) > 0 {
		if e := &q.h[0]; e.ver == q.ver[e.row] {
			return int(e.row), e.v
		}
		q.pop()
	}
	return -1, 0
}

// runDual iterates the dual simplex until the point is primal
// feasible (Optimal — the caller's phase 2 then confirms optimality),
// provably primal infeasible (Infeasible), out of budget (IterLimit),
// or the loop wants the primal to take over (dualBail).
func (s *simplex) runDual() (Status, error) {
	tol := feasTol
	s.computeReducedCosts()
	if !s.dualFeasible(10 * tol) {
		return dualBail, nil
	}
	if s.rowW == nil {
		s.rowW = make([]float64, s.m)
	}
	for i := range s.rowW {
		s.rowW[i] = 1
	}
	s.rebuildChuzr()
	stall := 0
	checkClock := !s.opts.Deadline.IsZero()
	for ; s.iter < s.opts.MaxIters; s.iter++ {
		if checkClock && s.iter&255 == 0 && time.Now().After(s.opts.Deadline) {
			return IterLimit, nil
		}
		r, delta := s.dualLeaving()
		if r < 0 {
			return Optimal, nil // primal feasible
		}
		sgn := 1.0
		if delta < 0 {
			sgn = -1
		}
		// Pivot row: ρ = B⁻ᵀ e_r, then α_j = ρ·A_j over the columns
		// ρ's support touches (every other α_j is zero, so no other
		// nonbasic is a breakpoint).
		s.pivotRow(r)
		// Bound-flip ratio test (long-step dual, dualRatio). A boxed
		// candidate whose flip to its opposite bound leaves the dual
		// slope positive is flipped rather than entered — θ passes its
		// breakpoint — and the entering variable is the first
		// breakpoint the slope cannot pass. On 0-1 models this repairs
		// a bound change in one basis update where the textbook test
		// pays one pivot per breakpoint. Flipping an at-lower j to
		// at-upper keeps dual feasibility because the final θ is at
		// least j's own breakpoint, so j's updated reduced cost has
		// crossed to the at-upper sign (symmetrically for at-upper).
		enter, chosenRatio := s.dualRatio(sgn, math.Abs(delta))
		flips := s.flips
		if enter < 0 {
			// Dual ray: no nonbasic move (or flipping all of them) can
			// repair the violated row — the problem is primal
			// infeasible. This conclusion uses only α signs, states,
			// and bound ranges, so it is immune to maintained-cost
			// drift. The flips are not applied.
			return Infeasible, nil
		}
		if len(flips) > 0 {
			// Apply the flips: one combined ftran moves every basic by
			// the flipped columns' contribution, then the violated row
			// is re-read (its residual is the slope left after the
			// flips, same sign).
			s.w.clear()
			for _, j := range flips {
				var dxj float64
				if s.state[j] == stLower {
					dxj = s.hib(j) - s.lob(j)
					s.state[j] = stUpper
				} else {
					dxj = s.lob(j) - s.hib(j)
					s.state[j] = stLower
				}
				if dxj == 0 {
					continue // a fixed variable's flip is a no-op breakpoint
				}
				s.column(j, func(row int, val float64) {
					s.w.x[row] += val * dxj
					s.w.touch(row)
				})
			}
			s.ftranW()
			s.stepXB(1) // x·1 is x: the flips' image itself
			s.rescoreW()
			s.boundFlips += len(flips)
			x := s.xB[r]
			j := s.basis[r]
			if lo := s.lob(j); x < lo-tol {
				delta = x - lo
			} else if hi := s.hib(j); x > hi+tol {
				delta = x - hi
			} else {
				// The flips alone landed the row inside its bounds
				// (the remaining slope was below tolerance); no pivot
				// is needed this iteration.
				s.dualIters++
				stall = 0
				continue
			}
			if (delta < 0) != (sgn < 0) {
				// The residual changed sign: the slope bookkeeping and
				// the factorized arithmetic disagree.
				return dualBail, nil
			}
		}
		// Entering column through the factorization; its row-r entry
		// must agree with the btran pricing of the same element.
		s.w.clear()
		s.scatterColumn(enter)
		s.ftranW()
		aq := s.w.x[r]
		if ar := s.alpha.x[enter]; math.Abs(aq) < 1e-9 ||
			math.Abs(aq-ar) > 1e-6*(1+math.Abs(aq)) {
			// The factorized arithmetic disagrees with itself: refresh
			// the factorization and let the primal take over.
			if err := s.refactor(); err != nil {
				return IterLimit, err
			}
			return dualBail, nil
		}
		dx := delta / aq
		theta := s.d[enter] / aq
		// Maintained reduced costs across the pivot (same algebra as
		// the primal update, with the pivot row already priced).
		for _, j := range s.alpha.nz {
			if s.state[j] == stBasic || j == enter {
				continue
			}
			if a := s.alpha.x[j]; a != 0 {
				s.d[j] -= theta * a
			}
		}
		leaving := s.basis[r]
		s.d[leaving] = -theta
		s.d[enter] = 0
		// Dual devex row weights (Forrest–Goldfarb), from the ftran
		// image of the entering column.
		wr := s.rowW[r]
		den := aq * aq
		for _, i := range s.w.nz {
			if i == r {
				continue
			}
			wi := s.w.x[i]
			if wi == 0 {
				continue
			}
			if g := (wi * wi / den) * wr; g > s.rowW[i] {
				s.rowW[i] = g
			}
		}
		if g := wr / den; g > 1e-4 {
			s.rowW[r] = g
		} else {
			s.rowW[r] = 1e-4
		}
		// Primal point: every basic moves by -w·dx; the leaving
		// variable lands exactly on its violated bound, which is finite.
		s.stepXB(dx)
		s.pivot(enter, r, delta > 0, dx)
		s.rescoreW()
		s.dualIters++
		if chosenRatio <= 1e-11 {
			s.degenTotal++
			stall++
			if stall > dualStallLimit {
				return dualBail, nil
			}
		} else {
			stall = 0
		}
		refd, err := s.maybeRefactor(false)
		if err != nil {
			return IterLimit, err
		}
		if refd {
			s.computeReducedCosts()
			if !s.dualFeasible(1e-5) {
				// Refreshed arithmetic says the maintained costs had
				// drifted out of dual feasibility; the primal finishes.
				return dualBail, nil
			}
			s.rebuildChuzr()
		}
	}
	return IterLimit, nil
}
