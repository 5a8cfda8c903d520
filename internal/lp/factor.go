package lp

import (
	"fmt"
	"math"
	"slices"
)

// This file holds the sparse LU representation of the simplex basis.
// The basis matrix B is factorized as P B = L U with a Markowitz-style
// ordering (columns a priori by ascending count, pivot rows by fewest
// original nonzeros among numerically acceptable candidates), and the
// factorization is then kept frozen while pivots stack product-form
// (PFI) column etas on top of it (simplex.updates). The frozen
// luFactor is immutable and shareable: a Basis snapshot carries it
// (warmFactor) so warm-started re-solves of the same matrix adopt it
// instead of refactorizing.
//
// factorize and recomputeXB tally the work they do on s.work, one unit
// per visit of one entry, step, row or variable by one loop (entries
// scattered, steps reached and visited, L and U entries written,
// passes over the variables); refactor keeps the total as the
// factorization's buildWork, the budget of the refactorization clock
// (simplex.refactorDue). The update side counts in the same unit.
//
// The triangular solves are hypersparse (Gilbert & Peierls 1988; Hall
// & McKinnon 2005): a solve first collects the elimination steps
// reachable from its right-hand side's support, then runs the dense
// loop's body on just those steps, in the dense loop's order. A step
// the reach misses would only have read zeros, so the floating-point
// operations, the nonzero results and the accumulator's support order
// are those of the dense solve, and so are the pivots. FTRAN walks L
// and U by columns (the L-solve inside factorize too); BTRAN walks the
// transposed step indexes that factorize builds once at the end.
// ftranDense and btranDense remain for dense right-hand sides.

// luFactor is a frozen sparse LU factorization of a basis matrix.
// Elimination step k pivots one basis column on row prow[k]; by the
// package convention that a variable occupies the basis slot of its
// pivot row, the step-k component of any ftran lands in w[prow[k]] —
// exactly the slot of the variable it belongs to.
type luFactor struct {
	m   int
	a   *matrix // the frozen matrix it was computed on
	nnz int     // stored nonzeros in L and U, diagonals included

	prow []int32 // pivot row of elimination step k
	pos  []int32 // elimination step of pivot row i (-1 while unpivoted)

	// L as m unit-diagonal column etas in elimination order: eta k
	// holds the multipliers for the rows still unpivoted at step k.
	lptr []int32
	lind []int32 // row indices
	lval []float64

	// U by columns in elimination coordinates: column k holds entries
	// u[k',k] with k' an earlier step (uind) plus the diagonal.
	uptr  []int32
	uind  []int32 // elimination-step indices
	uval  []float64
	udiag []float64

	// The BTRAN reach graphs, by step: utind[utptr[k]:utptr[k+1]] are
	// the later steps whose U column has an entry in step k, and
	// ltind[ltptr[k]:ltptr[k+1]] the earlier steps whose L column has
	// an entry in row prow[k].
	utptr, utind []int32
	ltptr, ltind []int32
}

// warmFactor is the factorization payload a Basis snapshot carries: a
// shared frozen LU plus a private copy of the update file that was
// stacked on it when the snapshot was taken, and the refactorization
// clock at that moment, so an adopting solve resumes it.
type warmFactor struct {
	lu                    *luFactor
	updates               []eta
	nnz                   int // nonzeros in the update file
	buildWork, updateWork int
}

// reach closes s.steps, seeded by the caller through markStep, under
// the step graph whose step k leads to ind[ptr[k]:ptr[k+1]] (row
// indices mapped through rowStep when it is non-nil, unpivoted rows
// skipped), and lists the reached steps ascending (ascend: a short
// list is sorted, a long one read back from the mark words).
func (s *simplex) reach(ptr, ind, rowStep []int32) {
	for h := 0; h < len(s.steps); h++ {
		k := s.steps[h]
		for t := ptr[k]; t < ptr[k+1]; t++ {
			j := ind[t]
			if rowStep != nil {
				if j = rowStep[j]; j < 0 {
					continue
				}
			}
			s.markStep(j)
		}
	}
	ascend(s.stepMark, s.steps)
}

// markStep adds elimination step k to the reach.
func (s *simplex) markStep(k int32) {
	if !s.stepMark.has(int(k)) {
		s.stepMark.set(int(k))
		s.steps = append(s.steps, k)
	}
}

// clearSteps empties the reach.
func (s *simplex) clearSteps() {
	for _, k := range s.steps {
		s.stepMark.unset(int(k))
	}
	s.steps = s.steps[:0]
}

// lsolve applies L⁻¹ to the FTRAN accumulator, visiting in ascending
// order the steps reachable from its pivoted rows (also used
// mid-factorize, when L is still growing and some rows are unpivoted).
// Its passes go on s.work: the seeding pass over the support, three
// visits of each reached step (marked, solved, cleared), and each L
// entry once walked by the reach and once more if applied.
func (f *luFactor) lsolve(s *simplex) {
	work := len(s.w.nz)
	for _, i := range s.w.nz {
		if k := f.pos[i]; k >= 0 {
			s.markStep(k)
		}
	}
	s.reach(f.lptr, f.lind, f.pos)
	w := s.w.x
	work += 3 * len(s.steps)
	for _, k := range s.steps {
		n := int(f.lptr[k+1] - f.lptr[k])
		work += n
		v := w[f.prow[k]]
		if v == 0 {
			continue
		}
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			i := f.lind[t]
			s.w.touch(int(i))
			w[i] -= f.lval[t] * v
		}
		work += n
	}
	s.work += work
	s.clearSteps()
}

// usolve back-substitutes U on the FTRAN accumulator, visiting in
// descending order the steps reachable from its support. After lsolve
// this completes B⁻¹w, with the step-k component in w[prow[k]].
func (f *luFactor) usolve(s *simplex) {
	for _, i := range s.w.nz {
		s.markStep(f.pos[i])
	}
	s.reach(f.uptr, f.uind, nil)
	w := s.w.x
	for h := len(s.steps) - 1; h >= 0; h-- {
		k := s.steps[h]
		r := f.prow[k]
		v := w[r]
		if v == 0 {
			continue
		}
		x := v / f.udiag[k]
		w[r] = x
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			i := f.prow[f.uind[t]]
			s.w.touch(int(i))
			w[i] -= f.uval[t] * x
		}
	}
	s.clearSteps()
}

// btranReach solves Bᵀ y = y in place on the BTRAN accumulator, with
// btranDense's operations restricted to the reach: transposed U
// forward over the steps reachable from the support, then the
// transposed L etas in reverse over the steps reachable from the
// grown support.
func (f *luFactor) btranReach(s *simplex) {
	y := s.rho.x
	for _, i := range s.rho.nz {
		s.markStep(f.pos[i])
	}
	s.reach(f.utptr, f.utind, nil)
	for _, k := range s.steps {
		r := f.prow[k]
		v := y[r]
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			v -= f.uval[t] * y[f.prow[f.uind[t]]]
		}
		y[r] = v / f.udiag[k]
		s.rho.touch(int(r))
	}
	s.clearSteps()
	for _, i := range s.rho.nz {
		s.markStep(f.pos[i])
	}
	s.reach(f.ltptr, f.ltind, nil)
	for h := len(s.steps) - 1; h >= 0; h-- {
		k := s.steps[h]
		var sum float64
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			sum += f.lval[t] * y[f.lind[t]]
		}
		if sum != 0 {
			y[f.prow[k]] -= sum
			s.rho.touch(int(f.prow[k]))
		}
	}
	s.clearSteps()
}

// ftranDense solves B z = w in place on a dense vector and returns its
// work: both passes over the steps and the L and U entries applied.
func (f *luFactor) ftranDense(w []float64) int {
	work := 2 * f.m
	for k := 0; k < len(f.prow); k++ {
		v := w[f.prow[k]]
		if v == 0 {
			continue
		}
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			w[f.lind[t]] -= f.lval[t] * v
		}
		work += int(f.lptr[k+1] - f.lptr[k])
	}
	for k := f.m - 1; k >= 0; k-- {
		r := f.prow[k]
		v := w[r]
		if v == 0 {
			continue
		}
		x := v / f.udiag[k]
		w[r] = x
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			w[f.prow[f.uind[t]]] -= f.uval[t] * x
		}
		work += int(f.uptr[k+1] - f.uptr[k])
	}
	return work
}

// btranDense solves Bᵀ y = y in place: transposed U forward in
// elimination order, then the transposed L etas in reverse.
func (f *luFactor) btranDense(y []float64) {
	for k := 0; k < f.m; k++ {
		r := f.prow[k]
		v := y[r]
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			v -= f.uval[t] * y[f.prow[f.uind[t]]]
		}
		y[r] = v / f.udiag[k]
	}
	for k := f.m - 1; k >= 0; k-- {
		var sum float64
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			sum += f.lval[t] * y[f.lind[t]]
		}
		if sum != 0 {
			y[f.prow[k]] -= sum
		}
	}
}

// addColumn records one elimination step from the accumulator:
// entries at already-pivoted rows become U column entries, entries at
// unpivoted rows divided by the pivot become L multipliers. The scan
// of the accumulator, the entries written and the step's own four
// appends go on s.work.
func (f *luFactor) addColumn(s *simplex, prow int) {
	l0, u0 := len(f.lind), len(f.uind)
	piv := s.w.x[prow]
	for _, i := range s.w.nz {
		if i == prow {
			continue
		}
		v := s.w.x[i]
		if v < 1e-12 && v > -1e-12 {
			continue
		}
		if k := f.pos[i]; k >= 0 {
			f.uind = append(f.uind, k)
			f.uval = append(f.uval, v)
		} else {
			f.lind = append(f.lind, int32(i))
			f.lval = append(f.lval, v/piv)
		}
	}
	s.work += len(s.w.nz) + len(f.lind) - l0 + len(f.uind) - u0 + 4
	f.uptr = append(f.uptr, int32(len(f.uind)))
	f.lptr = append(f.lptr, int32(len(f.lind)))
	f.udiag = append(f.udiag, piv)
	f.pos[prow] = int32(len(f.prow))
	f.prow = append(f.prow, int32(prow))
}

// transpose returns the step graph that reverses (ptr, ind): step k
// leads to every step whose entries in (ptr, ind) include k, in
// ascending order. rowStep maps row-valued entries to steps (nil when
// ind already holds steps).
func transpose(m int, ptr, ind, rowStep []int32) (tptr, tind []int32) {
	tptr = make([]int32, m+1)
	for _, j := range ind {
		if rowStep != nil {
			j = rowStep[j]
		}
		tptr[j+1]++
	}
	for k := 0; k < m; k++ {
		tptr[k+1] += tptr[k]
	}
	tind = make([]int32, len(ind))
	next := append([]int32(nil), tptr[:m]...)
	for k := 0; k < m; k++ {
		for t := ptr[k]; t < ptr[k+1]; t++ {
			j := ind[t]
			if rowStep != nil {
				j = rowStep[j]
			}
			tind[next[j]] = int32(k)
			next[j]++
		}
	}
	return tptr, tind
}

// factorize computes a fresh LU factorization of the current basis,
// repairing singularity the same way the old product-form rebuild
// did: columns that cannot be pivoted leave the basis, rows left
// unpivoted get their slack back, and a slack that is needed while
// basic elsewhere is a *StabilityError (the eta arithmetic no longer
// represents a permutation of the basis). On success s.lu is replaced
// and the basis arrays are consistent; the caller recomputes xB.
func (s *simplex) factorize() error {
	f := s.newFactor()
	for _, j := range s.orderBasis() {
		s.eliminate(f, j)
	}
	return s.finishFactor(f)
}

// newFactor starts an empty factorization with no row pivoted. The
// factor itself is always fresh, since snapshots share it; its slices
// are sized from the previous factor's.
func (s *simplex) newFactor() *luFactor {
	m := s.m
	f := &luFactor{
		m: m, a: s.a,
		prow:  make([]int32, 0, m),
		pos:   make([]int32, m),
		lptr:  make([]int32, 1, m+1),
		lind:  make([]int32, 0, s.lnnz),
		lval:  make([]float64, 0, s.lnnz),
		uptr:  make([]int32, 1, m+1),
		uind:  make([]int32, 0, s.unnz),
		uval:  make([]float64, 0, s.unnz),
		udiag: make([]float64, 0, m),
	}
	for i := range f.pos {
		f.pos[i] = -1
	}
	s.work += m
	if s.newBasis == nil {
		s.newBasis = make([]int, m)
	}
	s.failed = s.failed[:0]
	return f
}

// eliminate runs one elimination step on basic column j: its L-solve
// against the steps so far, then a pivot row chosen by threshold
// pivoting — any row within 10x of the largest magnitude is
// acceptable; among those, fewest original nonzeros wins (Markowitz,
// from the static row counts of orderBasis), magnitude breaks ties. A
// column with no usable entry goes to s.failed. Clearing the last
// column, scattering this one (a call and a write per entry) and the
// pivot search's two passes go on s.work (lsolve and addColumn count
// their own).
func (s *simplex) eliminate(f *luFactor, j int) {
	s.work += len(s.w.nz) + 2*s.colNnz(j)
	s.w.clear()
	s.scatterColumn(j)
	f.lsolve(s)
	s.work += 2 * len(s.w.nz)
	maxAbs := 0.0
	for _, i := range s.w.nz {
		if f.pos[i] >= 0 {
			continue
		}
		if a := math.Abs(s.w.x[i]); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs <= 1e-7 {
		s.failed = append(s.failed, j)
		return
	}
	bestR, bestV, bestC := -1, 0.0, 0
	thresh := 0.1 * maxAbs
	for _, i := range s.w.nz {
		if f.pos[i] >= 0 {
			continue
		}
		a := math.Abs(s.w.x[i])
		if a < thresh {
			continue
		}
		if c := s.rowCount[i]; bestR < 0 || c < bestC || (c == bestC && a > bestV) {
			bestR, bestV, bestC = i, a, c
		}
	}
	f.addColumn(s, bestR)
	s.newBasis[bestR] = j
}

// finishFactor repairs the basis around the steps taken and installs
// the factorization. Its passes over the rows and the two transposes
// go on s.work.
func (s *simplex) finishFactor(f *luFactor) error {
	newBasis := s.newBasis
	// Repair: failed columns leave the basis; unpivoted rows get their
	// slack back.
	for _, j := range s.failed {
		s.state[j] = stLower
		if s.lob(j) == math.Inf(-1) {
			s.state[j] = stZero
			if s.hib(j) < Inf {
				s.state[j] = stUpper
			}
		}
		s.inRow[j] = -1
	}
	for r := 0; r < s.m; r++ {
		if f.pos[r] >= 0 {
			continue
		}
		j := s.n + r
		if s.state[j] == stBasic && s.inRow[j] != r {
			// The slack is basic elsewhere — its column only covers row
			// r, so the eta file no longer represents a permutation of
			// the basis (accumulated roundoff).
			return &StabilityError{Stage: "refactor",
				Detail: fmt.Sprintf("slack of row %d is basic in row %d", r, s.inRow[j])}
		}
		// The slack's column -e_r at an unpivoted row reaches no step,
		// so its L-solve is the identity.
		s.w.clear()
		s.w.x[r] = -1
		s.w.touch(r)
		f.addColumn(s, r)
		newBasis[r] = j
	}
	copy(s.basis, newBasis)
	for r := 0; r < s.m; r++ {
		s.inRow[s.basis[r]] = r
		s.state[s.basis[r]] = stBasic
	}
	f.nnz = len(f.lval) + len(f.uval) + s.m
	s.lnnz, s.unnz = len(f.lval), len(f.uval)
	f.utptr, f.utind = transpose(s.m, f.uptr, f.uind, nil)
	f.ltptr, f.ltind = transpose(s.m, f.lptr, f.lind, f.pos)
	s.work += 2*s.m + 2*(len(f.uind)+s.m) + 2*(len(f.lind)+s.m)
	s.lu = f
	return nil
}

// orderBasis counts the basis matrix's nonzeros per row into
// s.rowCount and returns the basic columns in elimination order: the
// column half of the Markowitz product is a priori, ascending column
// count with the column id breaking ties. One counting pass over the
// variables in ascending id places each basic column after every
// column with fewer nonzeros, or with as many and a lower id, so the
// order is the one a sort by (count, id) gives. The basic columns'
// entries and the passes over the rows and the variables go on
// s.work.
func (s *simplex) orderBasis() []int {
	if s.rowCount == nil {
		s.rowCount = make([]int, s.m)
		s.colOrder = make([]int, s.m)
	}
	rowCount := s.rowCount
	clear(rowCount)
	most := 1
	for r := 0; r < s.m; r++ {
		if j := s.basis[r]; j < s.n {
			c := s.a.col(j)
			for _, nz := range c {
				rowCount[nz.Row]++
			}
			most = max(most, len(c))
			s.work += len(c)
		} else {
			rowCount[j-s.n]++
		}
	}
	s.work += s.n + 3*s.m
	// bucket[c] is where the next basic column with c nonzeros goes.
	s.bucket = slices.Grow(s.bucket[:0], most+1)[:most+1]
	next := s.bucket
	clear(next)
	for r := 0; r < s.m; r++ {
		if c := s.colNnz(s.basis[r]); c < most {
			next[c+1]++
		}
	}
	for c := 1; c <= most; c++ {
		next[c] += next[c-1]
	}
	for j := 0; j < s.n+s.m; j++ {
		if r := s.inRow[j]; r >= 0 && s.basis[r] == j {
			c := s.colNnz(j)
			s.colOrder[next[c]] = j
			next[c]++
		}
	}
	return s.colOrder
}

// colNnz returns the number of nonzeros in any variable's column.
func (s *simplex) colNnz(j int) int {
	if j < s.n {
		return int(s.a.cptr[j+1] - s.a.cptr[j])
	}
	return 1
}

// adoptFactor installs the factorization carried by a warm basis
// snapshot, skipping the refactorization a cold start would pay, and
// resumes the snapshot's refactorization clock; re-linking the update
// file goes on it. It refuses (reporting false, not an error) when the
// payload was built on a different matrix, or when its update file is
// already due for a rebuild (refactorDue) — adopting it would buy
// nothing. The lp/refactor_fail fault fires here too, so injected
// factorization failures reach warm re-solves that would otherwise
// never refactor.
func (s *simplex) adoptFactor(b *Basis) (bool, error) {
	f := b.factor
	if f == nil || f.lu == nil || f.lu.a != s.a {
		return false, nil
	}
	if s.refactorDue(len(f.updates), f.updateWork, f.buildWork) {
		return false, nil
	}
	if fpRefactorFail.Fire() {
		return false, &StabilityError{Stage: "refactor",
			Detail: "injected repair conflict (carried factorization)", EtaDepth: len(f.updates)}
	}
	s.lu = f.lu
	s.clearUpdates()
	s.updates = append(s.updates, f.updates...)
	s.etaLinks = slices.Grow(s.etaLinks, f.nnz) // one entry per stored nonzero
	s.buildWork, s.updateWork = f.buildWork, f.updateWork
	for k := range s.updates {
		s.linkEta(k)
	}
	s.updateNnz = f.nnz
	return true, nil
}

// recomputeXB recomputes the basic values from the nonbasic point:
// x_B = ftran(-(N x_N)). The pass over the variables, the entries
// scattered, the LU solve and the pass over the rows go on s.work;
// ftran puts the update file's share on the update clock.
func (s *simplex) recomputeXB() {
	rhs := s.xB
	clear(rhs)
	work := s.n + 2*s.m
	for j := 0; j < s.n+s.m; j++ {
		if s.state[j] == stBasic {
			continue
		}
		v := s.nonbasicValue(j)
		if v == 0 {
			continue
		}
		if j < s.n {
			c := s.a.col(j)
			for _, nz := range c {
				rhs[nz.Row] -= nz.Val * v
			}
			work += len(c)
		} else {
			rhs[j-s.n] += v
		}
	}
	s.work += work
	s.ftran(rhs)
	s.rebuildInfeasible()
}
