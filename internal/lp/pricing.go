package lp

import (
	"math"
	"slices"
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

// initPricing (re)initializes the maintained reduced costs and resets
// every devex weight to the current nonbasic reference framework.
func (s *simplex) initPricing() {
	if s.d == nil {
		s.d = make([]float64, s.n+s.m)
		s.gamma = make([]float64, s.n+s.m)
	}
	s.computeReducedCosts()
	for j := range s.gamma {
		s.gamma[j] = 1
	}
}

// computeReducedCosts recomputes d exactly for the phase-2 objective:
// one btran of the basic costs plus a pass over every column.
func (s *simplex) computeReducedCosts() {
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
			for _, nz := range s.p.cols[j] {
				d -= s.y[nz.Row] * nz.Val
			}
		} else {
			d += s.y[j-s.n]
		}
		s.d[j] = d
	}
}

// priceDevex picks the entering variable maximizing d²/γ over the
// eligible nonbasics, returning (-1, 0) when none is eligible.
func (s *simplex) priceDevex(tol float64) (int, float64) {
	enter := -1
	var enterDir, best float64
	for j := 0; j < s.n+s.m; j++ {
		d := s.d[j]
		var dir float64
		switch s.state[j] {
		case stLower:
			if d < -tol {
				dir = 1
			}
		case stUpper:
			if d > tol {
				dir = -1
			}
		case stZero:
			if d < -tol {
				dir = 1
			} else if d > tol {
				dir = -1
			}
		default:
			continue
		}
		if dir == 0 {
			continue
		}
		if score := d * d / s.gamma[j]; score > best {
			best, enter, enterDir = score, j, dir
		}
	}
	return enter, enterDir
}

// rowMatrix is A stored by rows: row i holds the columns
// col[ptr[i]:ptr[i+1]], ascending, with their coefficients in val. A
// solve builds it once, on first use, for pricing pivot rows.
type rowMatrix struct {
	ptr []int32
	col []int32
	val []float64
}

func newRowMatrix(p *Problem) *rowMatrix {
	m := p.NumRows()
	a := &rowMatrix{ptr: make([]int32, m+1)}
	for _, c := range p.cols {
		for _, nz := range c {
			a.ptr[nz.Row+1]++
		}
	}
	for i := 0; i < m; i++ {
		a.ptr[i+1] += a.ptr[i]
	}
	a.col = make([]int32, a.ptr[m])
	a.val = make([]float64, a.ptr[m])
	next := append([]int32(nil), a.ptr[:m]...)
	for j, c := range p.cols {
		for _, nz := range c {
			a.col[next[nz.Row]] = int32(j)
			a.val[next[nz.Row]] = nz.Val
			next[nz.Row]++
		}
	}
	return a
}

// priceRow computes α_j = ρ·a_j into s.alpha for every variable j,
// slacks included, whose column has a nonzero in the support of the
// BTRAN accumulator ρ, and lists those variables in s.alpha.nz (in
// touch order, not ascending); every other α_j is zero. It visits the
// support's rows in ascending order, so each α_j adds its terms in the
// order of a loop down column j and gets that loop's bits.
func (s *simplex) priceRow() {
	if s.rows == nil {
		s.rows = newRowMatrix(s.p)
		s.alpha = newSparseVec(s.n + s.m)
	}
	s.alpha.clear()
	slices.Sort(s.rho.nz)
	a, alpha := s.rows, s.alpha.x
	for _, i := range s.rho.nz {
		yi := s.rho.x[i]
		if yi == 0 {
			continue
		}
		for t := a.ptr[i]; t < a.ptr[i+1]; t++ {
			j := int(a.col[t])
			s.alpha.touch(j)
			alpha[j] += yi * a.val[t]
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

// updatePricing carries the maintained reduced costs and devex
// weights across one pivot (entering q at basis row slot r). It must
// run before the basis arrays are mutated: it reads the pivot element
// from the accumulator (the ftran image of q) and prices the pivot
// row against the still-current nonbasic set.
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
		if g := (a / aq) * (a / aq) * gq; g > s.gamma[j] {
			s.gamma[j] = g
		}
	}
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
	tol := s.opts.Tol
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
			s.computeReducedCosts()
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
		for _, r := range s.w.nz {
			if s.w.x[r] != 0 {
				s.xB[r] -= s.w.x[r] * step
			}
		}
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
		leaving := s.basis[leave]
		if leaveToUpper {
			s.state[leaving] = stUpper
		} else {
			s.state[leaving] = stLower
		}
		if s.hib(leaving) == Inf && s.lob(leaving) == math.Inf(-1) {
			s.state[leaving] = stZero
		}
		s.inRow[leaving] = -1
		enterVal := s.nonbasicValue(enter) + step
		s.basis[leave] = enter
		s.inRow[enter] = leave
		s.state[enter] = stBasic
		piv := math.Abs(s.w.x[leave])
		s.pushEtaW(leave)
		s.xB[leave] = enterVal
		refd, err := s.maybeRefactor(piv < 1e-8*maxAbsW)
		if err != nil {
			return IterLimit, err
		}
		if refd {
			s.computeReducedCosts()
			exact = true
		}
	}
	return IterLimit, nil
}
