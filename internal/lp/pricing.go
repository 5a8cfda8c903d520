package lp

import (
	"math"
	"time"
)

// Devex pricing for the primal phase 2 (Forrest–Goldfarb reference
// weights, approximating steepest edge without the extra ftran per
// candidate). The loop maintains the full reduced-cost vector
// incrementally — one hypersparse btran of the pivot row, priced from
// the row-wise copy of A over just the rows in its support — and
// recomputes it exactly at every refactorization and once more before
// optimality is declared, so maintained-cost drift can never produce
// a false optimum. Long degenerate runs hand the phase to the
// Bland-guarded Dantzig loop (blandSwitch), preserving the
// anti-cycling guarantee.
//
// No pivot loop rescans every variable or row per iteration. Four
// structures are kept up to date from each pivot's sparse support
// instead (Hall & McKinnon), each read so that it gives the scan's
// floating-point operations in the scan's order, and so its pivots:
//
//   - The infeasible set (simplex.infeas) holds every basic row
//     strictly outside its bounds. recomputeXB rebuilds it; stepXB adds
//     each row it moves. Phase 1 prunes it and lists it ascending, so
//     its infeasibility sum and its c_B are infeasibility()'s and the
//     old scan's, term for term.
//   - The dual's leaving-row heap (simplex.chuzr, dual.go) holds each
//     row violated by more than feasTol under its weighted violation; the
//     dual re-scores the rows each step moves, and its top is the
//     scan's pick, ties to the lowest row.
//   - The devex candidates (simplex.cand) hold every nonbasic whose d
//     prices it in. repriceDevex rebuilds the list with d;
//     updatePricing adds each j whose d it changes. priceDevex drops
//     entries priced out as it scans, and breaks ties to the lowest j.
//   - The eta row index lists, per row, the update etas that read or
//     pivot on it. btranRho visits only the etas it links to ρ's
//     support; every other eta would read only +0 and be skipped by
//     the scan too.

// initPricing (re)initializes the maintained reduced costs and the
// candidate list, and resets every devex weight to the current
// nonbasic reference framework.
func (s *simplex) initPricing() {
	s.repriceDevex()
	for j := range s.gamma {
		s.gamma[j] = 1
	}
}

// repriceDevex recomputes d exactly and rebuilds the devex candidate
// list from it.
func (s *simplex) repriceDevex() {
	s.computeReducedCosts()
	if s.cand.in == nil {
		s.cand = newIndexSet(s.n + s.m)
	}
	s.cand.empty()
	tol := feasTol
	for j, d := range s.d {
		if _, dir := dantzigScore(s.state[j], d, tol); dir != 0 {
			s.cand.touch(j)
		}
	}
}

// computeReducedCosts recomputes d exactly for the phase-2 objective:
// one btran of the basic costs plus a pass over every column.
func (s *simplex) computeReducedCosts() {
	if s.d == nil {
		s.d = make([]float64, s.n+s.m)
		s.gamma = make([]float64, s.n+s.m)
	}
	for r := 0; r < s.m; r++ {
		s.y[r] = s.costOf(s.basis[r], false)
	}
	s.btran(s.y)
	for j := 0; j < s.n+s.m; j++ {
		if s.state[j] == stBasic {
			s.d[j] = 0
			continue
		}
		d := s.costOf(j, false)
		if j < s.n {
			for _, nz := range s.a.col(j) {
				d -= s.y[nz.Row] * nz.Val
			}
		} else {
			d += s.y[j-s.n]
		}
		s.d[j] = d
	}
}

// priceDevex picks the entering variable maximizing d²/γ over the
// eligible nonbasics, returning (-1, 0) when none is eligible. It
// scans only the candidate list, dropping the entries that are no
// longer eligible, and breaks score ties to the lowest index: the
// pick an ascending scan of every variable makes.
func (s *simplex) priceDevex(tol float64) (int, float64) {
	enter := -1
	var enterDir, best float64
	kept := s.cand.nz[:0]
	for _, j := range s.cand.nz {
		d := s.d[j]
		_, dir := dantzigScore(s.state[j], d, tol)
		if dir == 0 {
			s.cand.in.unset(j)
			continue
		}
		kept = append(kept, j)
		if score := d * d / s.gamma[j]; score > best || (score == best && j < enter) {
			best, enter, enterDir = score, j, dir
		}
	}
	s.cand.nz = kept
	return enter, enterDir
}

// priceRow computes α_j = ρ·a_j into s.alpha for every variable j,
// slacks included, whose column has a nonzero in the support of the
// BTRAN accumulator ρ, and lists those variables in s.alpha.nz (in
// touch order, not ascending); every other α_j is zero. It visits the
// support's rows in ascending order, listed by ascend from ρ's mark
// words, so each α_j adds its terms in the order of a loop down column
// j and gets that loop's bits. The rows are the frozen matrix's, whose
// columns ascend.
func (s *simplex) priceRow() {
	if s.alpha.x == nil {
		s.alpha = newSparseVec(s.n + s.m)
	}
	s.alpha.clear()
	ascend(s.rho.in, s.rho.nz)
	a, alpha := s.a, s.alpha.x
	for _, i := range s.rho.nz {
		yi := s.rho.x[i]
		if yi == 0 {
			continue
		}
		for _, e := range a.row(i) {
			s.alpha.touch(e.Col)
			alpha[e.Col] += yi * e.Val
		}
		s.alpha.touch(s.n + i)
		alpha[s.n+i] = -yi
	}
}

// pivotRow prices basis row slot r of the tableau: ρ = B⁻ᵀe_r by the
// hypersparse BTRAN, then α = ρᵀ[A | -I] by priceRow.
func (s *simplex) pivotRow(r int) {
	s.rho.clear()
	s.rho.x[r] = 1
	s.rho.touch(r)
	s.btranRho()
	s.priceRow()
}

// updatePricing carries the maintained reduced costs, devex weights
// and candidate list across one pivot (entering q at basis row slot
// r). It must run before the basis arrays are mutated: it reads the
// pivot element from the accumulator (the ftran image of q) and prices
// the pivot row against the still-current nonbasic set.
func (s *simplex) updatePricing(q, r int) {
	s.pivotRow(r)
	aq := s.w.x[r]
	theta := s.d[q] / aq
	gq := s.gamma[q]
	for _, j := range s.alpha.nz {
		a := s.alpha.x[j]
		if a == 0 || s.state[j] == stBasic || j == q {
			continue
		}
		s.d[j] -= theta * a
		s.cand.touch(j)
		if g := (a / aq) * (a / aq) * gq; g > s.gamma[j] {
			s.gamma[j] = g
		}
	}
	// The leaving variable's new d = -θ has the sign that keeps it from
	// re-entering at the bound the ratio test sent it to, so the
	// candidate list does not need it.
	leaving := s.basis[r]
	s.d[leaving] = -theta
	s.d[q] = 0
	if g := gq / (aq * aq); g > 1 {
		s.gamma[leaving] = g
	} else {
		s.gamma[leaving] = 1
	}
}

// runDevex is the phase-2 pivot loop under devex pricing. It returns
// blandSwitch when a degenerate run exceeds the anti-cycling
// threshold; solveOnce then finishes the phase with the Bland-guarded
// Dantzig loop.
func (s *simplex) runDevex() (Status, error) {
	tol := feasTol
	checkClock := !s.opts.Deadline.IsZero()
	s.initPricing()
	exact := true // d matches an exact recompute
	for ; s.iter < s.opts.MaxIters; s.iter++ {
		if checkClock && s.iter&255 == 0 && time.Now().After(s.opts.Deadline) {
			return IterLimit, nil
		}
		enter, enterDir := s.priceDevex(tol)
		if enter < 0 && !exact {
			// The maintained costs claim optimality; confirm against an
			// exact recompute before declaring it.
			s.repriceDevex()
			exact = true
			enter, enterDir = s.priceDevex(tol)
		}
		if enter < 0 {
			return Optimal, nil
		}
		exact = false
		s.w.clear()
		s.scatterColumn(enter)
		s.ftranW()
		leave, leaveToUpper, limit, maxAbsW := s.ratioTest(enter, enterDir, false, tol)
		if limit == Inf {
			return Unbounded, nil
		}
		if limit <= 1e-11 {
			s.degenerate++
			s.degenTotal++
			if s.degenerate > 1000 {
				s.bland = true
				return blandSwitch, nil
			}
		} else {
			s.degenerate = 0
		}
		step := enterDir * limit
		s.stepXB(step)
		if leave < 0 {
			// Bound flip: reduced costs and weights are unaffected.
			if s.state[enter] == stLower {
				s.state[enter] = stUpper
			} else {
				s.state[enter] = stLower
			}
			continue
		}
		s.updatePricing(enter, leave)
		piv := math.Abs(s.w.x[leave])
		s.pivot(enter, leave, leaveToUpper, step)
		refd, err := s.maybeRefactor(piv < 1e-8*maxAbsW)
		if err != nil {
			return IterLimit, err
		}
		if refd {
			s.repriceDevex()
			exact = true
		}
	}
	return IterLimit, nil
}
