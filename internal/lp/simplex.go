package lp

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Solver-effort counters (DESIGN.md §8). They are accumulated in plain
// simplex fields during a solve — the pivot loop pays nothing — and
// flushed with a handful of atomic adds when the solve returns.
// refactor_retries and drift_resolves count the recovery ladder's
// steps (DESIGN.md §10): crash-basis restarts after a repair conflict,
// and fresh-basis re-solves after residual drift was detected at an
// optimum. dual_iterations counts the subset of lp/iterations spent in
// the dual simplex, eta_updates the product-form column etas stacked
// on factorizations (one per basis change), and
// refactor_cadence the update depth collapsed at each refactorization
// (cadence / refactorizations = average updates a factorization served
// before being rebuilt).
var (
	cSolves          = obs.NewCounter("lp/solves")
	cIters           = obs.NewCounter("lp/iterations")
	cDualIters       = obs.NewCounter("lp/dual_iterations")
	cBoundFlips      = obs.NewCounter("lp/bound_flips")
	cDegen           = obs.NewCounter("lp/degenerate_pivots")
	cBland           = obs.NewCounter("lp/bland_activations")
	cRefactors       = obs.NewCounter("lp/refactorizations")
	cEtaUpdates      = obs.NewCounter("lp/eta_updates")
	cCadence         = obs.NewCounter("lp/refactor_cadence")
	cRefactorRetries = obs.NewCounter("lp/refactor_retries")
	cDriftResolves   = obs.NewCounter("lp/drift_resolves")
)

// Fault-injection points (internal/fault; disarmed they cost one
// atomic load). refactor_fail simulates a basis repair conflict —
// fired both by refactorizations and by warm solves adopting a
// carried factorization, so the fault reaches solves that never
// refactor. perturb corrupts one basic value after phase 2 (payload =
// magnitude) to exercise the drift re-solve, and solve_latency sleeps
// at solve entry (payload = milliseconds) to exercise budget handling
// upstream.
var (
	fpRefactorFail = fault.NewPoint("lp/refactor_fail")
	fpPerturb      = fault.NewPoint("lp/perturb")
	fpLatency      = fault.NewPoint("lp/solve_latency")
)

// Variable states. Structural variables are 0..n-1; the slack of row r
// is variable n+r with bounds [rowLo, rowHi] and column -e_r.
type varState int8

const (
	stBasic varState = iota
	stLower
	stUpper
	stZero // nonbasic free variable held at zero
)

// Internal status sentinels threaded between the pivot loops; they
// never escape solveOnce.
const (
	blandSwitch Status = -1 // devex hands the phase to the Bland-guarded loop
	dualBail    Status = -2 // dual simplex defers to the primal phases
)

// eta is one product-form (PFI) column eta stacked on the LU
// factorization: the basis changed by pivoting the column with
// (pre-pivot) ftran image v at row r. The pivot value v[r] is stored
// separately; idx/val hold only the off-pivot entries. mark is
// btranRho's scratch, false whenever no BTRAN is running.
type eta struct {
	r    int
	piv  float64
	idx  []int32
	val  []float64
	mark bool
}

// etaLink is one entry of the eta row index: an eta that reads or
// pivots on the entry's row, and the row's next older entry (-1: none).
type etaLink struct{ eta, next int32 }

// simplex is the solver's workspace: the basis, its factorization and
// every scratch array a pivot loop touches. Problem.Solve keeps the
// last one on its Problem and recycles it for the next solve (recycle),
// so a branch-and-bound worker's node re-solves reuse its m- and
// n-sized arrays instead of allocating them afresh.
type simplex struct {
	p    *Problem
	a    *matrix // p's frozen matrix
	opts Options // the solve's own copy, defaults filled
	m, n int     // rows, structural columns

	state []varState
	basis []int     // basis[r] = variable occupying row slot r
	inRow []int     // inRow[var] = row slot, or -1
	xB    []float64 // value of basis[r]

	// Basis representation: a frozen sparse LU factorization plus the
	// update etas stacked on it since. The refactorization clock
	// (maybeRefactor) compares buildWork, the work factorize and
	// recomputeXB spent building lu, with updateWork, the work every
	// pass through the update file has spent since. Both count entries
	// and steps, not time, so the clock is deterministic. work is the
	// build side's running tally (factor.go): refactor zeroes it before
	// a build and keeps what the build added.
	lu         *luFactor
	updates    []eta
	updateNnz  int
	buildWork  int
	updateWork int
	work       int

	// The eta arena: pushEtaW carves each eta's idx/val from the free
	// tail of these chunks. A full chunk is replaced, never reset, so
	// the etas a Basis snapshot shares are never overwritten.
	etaIdx []int32
	etaVal []float64

	// factorize's scratch (factor.go): static row counts of the basis
	// matrix, the basic columns in elimination order, the bucket
	// offsets that order them, the new basis slots and the columns that
	// failed to pivot; lnnz and unnz are the previous factor's L and U
	// sizes, so the next one is allocated at about its final size.
	rowCount   []int
	colOrder   []int
	bucket     []int
	newBasis   []int
	failed     []int
	lnnz, unnz int

	// The eta row index: for each row i, the update etas that read i or
	// pivot on it, as a list newest first that starts at etaLinks entry
	// etaHead[i] (-1: none).
	etaHead  []int32
	etaLinks []etaLink

	// infeas holds every basic row whose value lies strictly outside its
	// bounds, plus rows since moved back inside; readers prune it first.
	infeas indexSet
	// chuzr is the dual simplex's leaving-row heap (dual.go).
	chuzr chuzrHeap

	// scratch. w is the FTRAN accumulator and rho the BTRAN one (the
	// row of B⁻¹ being priced); y is dense BTRAN work for dense
	// right-hand sides. steps and stepMark hold the elimination steps a
	// hypersparse solve reaches (factor.go).
	w        sparseVec
	rho      sparseVec
	y        []float64
	steps    []int32
	stepMark marks
	iter     int
	// pricing state (allocated on first use): the pivot-row
	// coefficients α over the columns the priced rows touch, maintained
	// phase-2 reduced costs, devex column weights, the devex candidates
	// and dual row weights. cand lists every nonbasic whose maintained
	// d_j prices it in, plus some since priced out; priceDevex prunes it
	// as it scans.
	alpha sparseVec
	d     []float64
	gamma []float64
	cand  indexSet
	rowW  []float64
	// cost is the objective that phase-2 pricing reads (costOf): the
	// problem's own, or its perturbed copy (pcost) while the cold dual
	// runs.
	cost  []float64
	pcost []float64
	// The dual ratio test's breakpoints and bound flips (dual.go).
	cands []dualCand
	flips []int
	// degeneracy handling
	degenerate int
	bland      bool
	// observability tallies, flushed to the package counters once per
	// solve (degenerate above is the *consecutive* count that triggers
	// Bland's rule; degenTotal never resets).
	degenTotal int
	dualIters  int
	boundFlips int
	etaUpdates int
	cadence    int
	refactors  int
	// recovery-ladder state (DESIGN.md §10): each kind of restart is
	// attempted at most once per solve.
	retries      int // crash-basis restarts after a refactor repair conflict
	driftRetries int // fresh-basis re-solves after residual drift
}

func newSimplex(p *Problem, opts *Options) *simplex {
	m, n := p.NumRows(), p.NumCols()
	s := &simplex{
		p: p, a: p.matrix(), opts: *opts, m: m, n: n,
		cost:  p.obj,
		state: make([]varState, n+m),
		basis: make([]int, m),
		inRow: make([]int, n+m),
		xB:    make([]float64, m),
		w:     newSparseVec(m),
		rho:   newSparseVec(m),
		y:     make([]float64, m),

		steps:    make([]int32, 0, m),
		stepMark: newMarks(m),
		etaHead:  make([]int32, m),
		infeas:   newIndexSet(m),
	}
	for i := range s.etaHead {
		s.etaHead[i] = -1
	}
	return s
}

// recycle readies a workspace that an earlier solve of the same
// Problem left behind for a solve under opts. It resets only the
// per-solve state: the tallies, the update file, the accumulators, the
// sets and the CHUZR heap. Every dense array a solve reads (xB, y, d, gamma,
// rowW and the basis arrays) is written first by the phase that reads
// it, so none of it needs clearing here.
func (s *simplex) recycle(opts *Options) {
	s.opts = *opts
	s.cost = s.p.obj
	s.iter = 0
	s.degenTotal, s.dualIters, s.boundFlips = 0, 0, 0
	s.etaUpdates, s.cadence, s.refactors = 0, 0, 0
	s.retries, s.driftRetries = 0, 0
	s.clearUpdates()
	s.w.clear()
	s.rho.clear()
	s.alpha.clear()
	s.infeas.empty()
	s.cand.empty()
	s.chuzr.clear()
}

// marks is a set of indices below a fixed bound, one bit per index
// packed 64 to a word, so the members can be read back in ascending
// order from the words (ascend).
type marks []uint64

func newMarks(n int) marks { return make(marks, (n+63)>>6) }

func (b marks) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b marks) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b marks) unset(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// sorts reports whether ascend sorts a list of k members rather than
// read them back from the words: whether k·log₂k compares cost less
// than one pass over the words (on a 2-core Xeon the two meet near
// there for 2,000 to 30,000 indices).
func (b marks) sorts(k int) bool { return k*bits.Len(uint(k)) <= len(b) }

// ascend puts list, which holds the members of b in any order, in
// ascending order in place: by a sort when b.sorts(len(list)), else by
// a pass over the words.
func ascend[T int | int32](b marks, list []T) {
	if b.sorts(len(list)) {
		if len(list) > 1 {
			slices.Sort(list)
		}
		return
	}
	list = list[:0]
	for w, word := range b {
		for word != 0 {
			list = append(list, T(w<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// indexSet is a set of indices below a fixed bound: nz lists the
// members in insertion order and in marks them, so adding one and
// emptying the set cost O(1) per member.
type indexSet struct {
	nz []int
	in marks
}

func newIndexSet(n int) indexSet {
	return indexSet{nz: make([]int, 0, n), in: newMarks(n)}
}

// touch adds index i to the set.
func (t *indexSet) touch(i int) {
	if !t.in.has(i) {
		t.in.set(i)
		t.nz = append(t.nz, i)
	}
}

// empty removes every member.
func (t *indexSet) empty() {
	for _, i := range t.nz {
		t.in.unset(i)
	}
	t.nz = t.nz[:0]
}

// sparseVec is a sparse accumulator: x is dense storage and the
// embedded set lists the indices that may be nonzero (its support),
// so hot loops never scan all of x. Every index outside nz holds zero.
type sparseVec struct {
	x []float64
	indexSet
}

func newSparseVec(n int) sparseVec {
	return sparseVec{x: make([]float64, n), indexSet: newIndexSet(n)}
}

// clear resets the accumulator to zero.
func (v *sparseVec) clear() {
	for _, i := range v.nz {
		v.x[i] = 0
	}
	v.empty()
}

// scatterColumn loads variable j's column into the accumulator.
func (s *simplex) scatterColumn(j int) {
	s.column(j, func(row int, val float64) {
		s.w.x[row] = val
		s.w.touch(row)
	})
}

// ftranW solves B z = w in place on the sparse accumulator: through
// the reach-restricted LU solves (factor.go), then through the update
// etas in stacking order. Every eta checked and every entry applied
// goes on the update clock.
func (s *simplex) ftranW() {
	s.lu.lsolve(s)
	s.lu.usolve(s)
	work := len(s.updates)
	for k := range s.updates {
		e := &s.updates[k]
		wr := s.w.x[e.r]
		if wr == 0 {
			continue
		}
		zr := wr / e.piv
		s.w.x[e.r] = zr
		for i, ix := range e.idx {
			s.w.touch(int(ix))
			s.w.x[ix] -= e.val[i] * zr
		}
		work += len(e.idx)
	}
	s.updateWork += work
}

// ftran solves B z = w in place (w dense). The LU solve's work goes on
// s.work, the update file's on the update clock.
func (s *simplex) ftran(w []float64) {
	s.work += s.lu.ftranDense(w)
	work := len(s.updates)
	for k := range s.updates {
		e := &s.updates[k]
		wr := w[e.r]
		if wr == 0 {
			continue
		}
		zr := wr / e.piv
		w[e.r] = zr
		for i, ix := range e.idx {
			w[ix] -= e.val[i] * zr
		}
		work += len(e.idx)
	}
	s.updateWork += work
}

// btran solves Bᵀ z = y in place (y dense): transposed update etas in
// reverse stacking order, then the transposed LU factors.
func (s *simplex) btran(y []float64) {
	work := len(s.updates)
	for k := len(s.updates) - 1; k >= 0; k-- {
		e := &s.updates[k]
		var sum float64
		for i, ix := range e.idx {
			sum += e.val[i] * y[ix]
		}
		y[e.r] = (y[e.r] - sum) / e.piv
		work += len(e.idx)
	}
	s.updateWork += work
	s.lu.btranDense(y)
}

// btranRho solves Bᵀ z = rho in place on the sparse BTRAN
// accumulator, with the same operations as btran: the transposed
// update etas in reverse stacking order, then the reach-restricted
// transposed LU solves (factor.go). Only the etas the eta row index
// links to a row of the support are visited: those of the starting
// support, and those below k of each row eta k newly writes. Any other
// eta reads only +0 entries, so btran's dot product is +0 there and it
// skips the eta as well. marked counts the etas flagged and not yet
// visited; once it reaches k, every eta below k is flagged and the
// index walks stop. The etas checked, the entries applied and the
// index links walked go on the update clock.
func (s *simplex) btranRho() {
	x := s.rho.x
	marked := 0
	work := len(s.updates)
	for _, i := range s.rho.nz {
		if marked == len(s.updates) {
			break
		}
		marked += s.markEtas(i, len(s.updates))
	}
	for k := len(s.updates) - 1; k >= 0; k-- {
		e := &s.updates[k]
		if !e.mark {
			continue
		}
		e.mark = false
		marked--
		work += len(e.idx)
		var sum float64
		for i, ix := range e.idx {
			sum += e.val[i] * x[ix]
		}
		if sum == 0 && x[e.r] == 0 {
			continue // btran stores a zero here too
		}
		x[e.r] = (x[e.r] - sum) / e.piv
		if !s.rho.in.has(e.r) {
			s.rho.touch(e.r)
			if marked < k {
				marked += s.markEtas(e.r, k)
			}
		}
	}
	s.updateWork += work
	s.lu.btranReach(s)
}

// markEtas flags for btranRho the etas below k that read row i or
// pivot on it, and returns how many were not flagged already. The
// links it walks go on the update clock.
func (s *simplex) markEtas(i, k int) int {
	n, walked := 0, 0
	for t := s.etaHead[i]; t >= 0; t = s.etaLinks[t].next {
		walked++
		if e := &s.updates[s.etaLinks[t].eta]; s.etaLinks[t].eta < int32(k) && !e.mark {
			e.mark = true
			n++
		}
	}
	s.updateWork += walked
	return n
}

// linkEta adds update eta k to the index lists of its pivot row and
// of every row it reads, one link each on the update clock.
func (s *simplex) linkEta(k int) {
	e := &s.updates[k]
	s.linkRow(e.r, k)
	for _, i := range e.idx {
		s.linkRow(int(i), k)
	}
	s.updateWork += len(e.idx) + 1
}

func (s *simplex) linkRow(i, k int) {
	s.etaLinks = append(s.etaLinks, etaLink{eta: int32(k), next: s.etaHead[i]})
	s.etaHead[i] = int32(len(s.etaLinks) - 1)
}

// clearUpdates empties the update file and its row index and zeroes
// the update clock.
func (s *simplex) clearUpdates() {
	for k := range s.updates {
		e := &s.updates[k]
		s.etaHead[e.r] = -1
		for _, i := range e.idx {
			s.etaHead[i] = -1
		}
	}
	s.updates = s.updates[:0]
	s.etaLinks = s.etaLinks[:0]
	s.updateNnz = 0
	s.updateWork = 0
}

// etaChunk is the size, in entries, of an eta arena chunk.
const etaChunk = 4096

// pushEtaW records the accumulator as a product-form column eta with
// pivot row r, its off-pivot entries carved from the eta arena. The
// scan of the accumulator and the links go on the update clock.
func (s *simplex) pushEtaW(r int) {
	if cap(s.etaIdx)-len(s.etaIdx) < len(s.w.nz) {
		c := max(etaChunk, len(s.w.nz))
		s.etaIdx = make([]int32, 0, c)
		s.etaVal = make([]float64, 0, c)
	}
	start := len(s.etaIdx)
	piv := s.w.x[r]
	for _, i := range s.w.nz {
		if i == r {
			continue
		}
		if v := s.w.x[i]; v > 1e-12 || v < -1e-12 {
			s.etaIdx = append(s.etaIdx, int32(i))
			s.etaVal = append(s.etaVal, v)
		}
	}
	end := len(s.etaIdx)
	idx, val := s.etaIdx[start:end:end], s.etaVal[start:end:end]
	s.updates = append(s.updates, eta{r: r, piv: piv, idx: idx, val: val})
	s.linkEta(len(s.updates) - 1)
	s.updateNnz += len(idx) + 1
	s.updateWork += len(s.w.nz)
	s.etaUpdates++
}

// lob/hib return the bounds of any variable (structural or slack).
func (s *simplex) lob(j int) float64 {
	if j < s.n {
		return s.p.lo[j]
	}
	return s.a.rowLo[j-s.n]
}

func (s *simplex) hib(j int) float64 {
	if j < s.n {
		return s.p.hi[j]
	}
	return s.a.rowHi[j-s.n]
}

// column visits the nonzeros of any variable's column.
func (s *simplex) column(j int, f func(row int, val float64)) {
	if j < s.n {
		for _, nz := range s.a.col(j) {
			f(nz.Row, nz.Val)
		}
		return
	}
	f(j-s.n, -1)
}

// nonbasicValue returns the value a nonbasic variable is held at.
func (s *simplex) nonbasicValue(j int) float64 {
	switch s.state[j] {
	case stLower:
		return s.lob(j)
	case stUpper:
		return s.hib(j)
	}
	return 0
}

// value returns the current value of any variable.
func (s *simplex) value(j int) float64 {
	if s.state[j] == stBasic {
		return s.xB[s.inRow[j]]
	}
	return s.nonbasicValue(j)
}

// flushStats publishes the solve's effort tallies to the package
// counters — a few atomic adds, once per solve.
func (s *simplex) flushStats() {
	cSolves.Inc()
	cIters.Add(int64(s.iter))
	cDualIters.Add(int64(s.dualIters))
	cBoundFlips.Add(int64(s.boundFlips))
	cDegen.Add(int64(s.degenTotal))
	cRefactors.Add(int64(s.refactors))
	cEtaUpdates.Add(int64(s.etaUpdates))
	cCadence.Add(int64(s.cadence))
	cRefactorRetries.Add(int64(s.retries))
	cDriftResolves.Add(int64(s.driftRetries))
	if s.bland {
		cBland.Inc()
	}
}

// solve runs the simplex with the §10 recovery ladder around it: a
// refactorization repair conflict restarts the whole solve once from
// the all-slack crash basis (which cannot conflict), and an optimal
// point whose recomputed row activities have drifted from the
// incrementally maintained values is re-solved once from a fresh
// basis. Each recovery is attempted at most once per solve; a second
// failure surfaces as a *StabilityError.
func (s *simplex) solve() (*Solution, error) {
	defer s.flushStats()
	if ms, ok := fpLatency.Value(); ok {
		time.Sleep(time.Duration(ms * float64(time.Millisecond)))
	}
	if err := s.p.check(); err != nil {
		return &Solution{Status: Infeasible}, err
	}
	warm := s.opts.WarmBasis
	for {
		sol, err := s.solveOnce(warm)
		if err != nil && s.retries == 0 && isStabilityError(err) {
			s.retries++
			warm = nil
			continue
		}
		if err == nil && sol.Status == Optimal && s.driftRetries == 0 {
			if mag, ok := fpPerturb.Value(); ok && s.m > 0 {
				// Corrupt one basic value so the residual check below
				// sees the drift this fault simulates.
				s.xB[0] += mag
				s.infeas.touch(0)
			}
			if drift, scale := s.primalResidual(); drift > 1e-6*scale {
				s.driftRetries++
				warm = nil
				continue
			}
		}
		return sol, err
	}
}

// isStabilityError reports whether err is or wraps a *StabilityError.
func isStabilityError(err error) bool {
	var se *StabilityError
	return errors.As(err, &se)
}

// solveOnce is one pass from the given warm basis (nil for the crash
// basis); solve wraps it with the recovery ladder. The path through
// the kernel: load or crash the basis, adopt the carried
// factorization or compute a fresh one, run the dual simplex when the
// start is a warm re-solve (Options.Method), then the primal phases
// for whatever remains.
func (s *simplex) solveOnce(warm *Basis) (*Solution, error) {
	s.reset()
	warmLoaded := warm != nil && s.loadBasis(warm)
	if !warmLoaded {
		s.crashBasis()
	}
	adopted := false
	if warmLoaded {
		ok, err := s.adoptFactor(warm)
		if err != nil {
			return nil, err
		}
		adopted = ok
	}
	if adopted {
		s.recomputeXB()
	} else if err := s.refactor(); err != nil {
		return nil, err
	}
	// Dual simplex: after a bound change the old basis stays dual
	// feasible while the point is primal infeasible — the dual iterates
	// from there instead of re-entering phase 1. So does a crash basis
	// whose columns all sit at the bound their cost prefers (the
	// allocator's root LP); a cold dual runs on perturbed costs
	// (DESIGN.md §11). runDual defers to the primal phases at once when
	// the start is not dual feasible.
	if s.opts.Method != MethodPrimal && s.infeasibility() > feasTol {
		if !warmLoaded {
			s.cost = s.perturbedCosts()
		}
		st, err := s.runDual()
		s.cost = s.p.obj
		if err != nil {
			return nil, err
		}
		switch st {
		case Infeasible, IterLimit:
			return &Solution{Status: st, Iters: s.iter}, nil
		}
		// Optimal: the point is primal feasible now and phase 2 below
		// reprices from the true costs and re-verifies optimality (a few
		// pivots at most). dualBail: the primal phases take over from
		// where it stopped.
	}
	// Phase 1: drive out infeasibility.
	if s.infeasibility() > feasTol {
		st, err := s.run(true)
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			// The phase-1 objective is bounded below by zero; an
			// unlimited ray here only means numerics gave up.
			st = Infeasible
		}
		if st != Optimal {
			return &Solution{Status: st, Iters: s.iter}, nil
		}
		if s.infeasibility() > 1e-5 {
			return &Solution{Status: Infeasible, Iters: s.iter}, nil
		}
	}
	// Phase 2: optimize under devex pricing, handing long degenerate
	// runs to the Bland-guarded loop.
	st, err := s.runDevex()
	if err == nil && st == blandSwitch {
		st, err = s.run(false)
	}
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: st, Iters: s.iter, X: make([]float64, s.n), Basis: s.snapshot()}
	for j := 0; j < s.n; j++ {
		sol.X[j] = s.value(j)
	}
	for j := 0; j < s.n; j++ {
		sol.Obj += s.p.obj[j] * sol.X[j]
	}
	return sol, nil
}

// reset clears the per-pass state so a recovery restart begins clean.
// The iteration count is kept: MaxIters bounds the total work of a
// solve including its restarts.
func (s *simplex) reset() {
	s.lu = nil
	s.clearUpdates()
	s.degenerate = 0
	s.bland = false
	for i := range s.xB {
		s.xB[i] = 0
	}
}

// primalResidual measures how far the incrementally maintained point
// drifted from the constraints: it recomputes every row activity from
// the structural values and compares against the slack variables
// (activity - slack = 0 holds exactly in exact arithmetic). It
// returns the largest violation and the activity scale to judge it
// against.
func (s *simplex) primalResidual() (drift, scale float64) {
	act := s.y // btran scratch, free once a phase has returned
	for i := range act {
		act[i] = 0
	}
	for j := 0; j < s.n; j++ {
		x := s.value(j)
		if x == 0 {
			continue
		}
		for _, nz := range s.a.col(j) {
			act[nz.Row] += nz.Val * x
		}
	}
	scale = 1
	for r := 0; r < s.m; r++ {
		if a := math.Abs(act[r]); a > scale {
			scale = a
		}
		if d := math.Abs(act[r] - s.value(s.n+r)); d > drift {
			drift = d
		}
	}
	return drift, scale
}

// crashBasis installs the all-slack basis with structural variables at
// the finite bound nearest zero.
func (s *simplex) crashBasis() {
	for j := 0; j < s.n; j++ {
		lo, hi := s.lob(j), s.hib(j)
		switch {
		case lo > math.Inf(-1) && (math.Abs(lo) <= math.Abs(hi) || hi == Inf):
			s.state[j] = stLower
		case hi < Inf:
			s.state[j] = stUpper
		default:
			s.state[j] = stZero
		}
		s.inRow[j] = -1
	}
	for r := 0; r < s.m; r++ {
		j := s.n + r
		s.state[j] = stBasic
		s.basis[r] = j
		s.inRow[j] = r
	}
}

// perturbedCosts returns the costs a cold dual runs on. Each
// structural j at a bound gets δ_j = feasTol·(1+|c_j|)·(1+u_j) added toward
// the side that keeps its reduced cost dual feasible, u_j ∈ [0, 1) a
// fixed hash of j. The zero-cost columns, which would otherwise tie at
// every dual ratio test, get distinct nonzero ratios, so the dual's
// pivots stop being degenerate; the deviation is small enough that
// phase 2 on the true costs cleans up in a few pivots.
func (s *simplex) perturbedCosts() []float64 {
	if s.pcost == nil {
		s.pcost = make([]float64, s.n)
	}
	c := s.pcost
	for j, cj := range s.p.obj {
		h := uint64(j) + 0x9e3779b97f4a7c15 // splitmix64 of j
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		u := float64((h^h>>31)>>11) / (1 << 53)
		delta := feasTol * (1 + math.Abs(cj)) * (1 + u)
		switch s.state[j] {
		case stLower:
			c[j] = cj + delta
		case stUpper:
			c[j] = cj - delta
		default:
			c[j] = cj
		}
	}
	return c
}

// loadBasis installs a snapshot taken from a problem with the same row
// and column counts (typically the parent node in branch and bound,
// after a bound change). It validates the snapshot and reports whether
// it was usable; the caller factorizes (or adopts the carried
// factorization) afterwards. Nonbasic states are re-sanitized against
// the (possibly changed) bounds so nonbasicValue never reads an
// infinite bound.
func (s *simplex) loadBasis(b *Basis) bool {
	if len(b.Order) != s.m || len(b.State) != s.n+s.m {
		return false
	}
	basics := 0
	for j := 0; j < s.n+s.m; j++ {
		st := varState(b.State[j])
		if st < stBasic || st > stZero {
			return false
		}
		if st == stBasic {
			basics++
		}
		s.state[j] = st
		s.inRow[j] = -1
	}
	if basics != s.m {
		return false
	}
	for r, j := range b.Order {
		if j < 0 || j >= s.n+s.m || varState(b.State[j]) != stBasic || s.inRow[j] >= 0 {
			return false
		}
		s.basis[r] = j
		s.inRow[j] = r
	}
	// Bounds may have moved since the snapshot: keep nonbasic variables
	// on a finite bound.
	for j := 0; j < s.n+s.m; j++ {
		lo, hi := s.lob(j), s.hib(j)
		switch s.state[j] {
		case stLower:
			if lo == math.Inf(-1) {
				if hi < Inf {
					s.state[j] = stUpper
				} else {
					s.state[j] = stZero
				}
			}
		case stUpper:
			if hi == Inf {
				if lo > math.Inf(-1) {
					s.state[j] = stLower
				} else {
					s.state[j] = stZero
				}
			}
		}
	}
	return true
}

// snapshot captures the current basis for warm-started re-solves,
// carrying the frozen factorization plus a private copy of the update
// file so an adopting solve can skip its refactorization.
func (s *simplex) snapshot() *Basis {
	b := &Basis{State: make([]int8, s.n+s.m), Order: make([]int, s.m)}
	for j, st := range s.state {
		b.State[j] = int8(st)
	}
	copy(b.Order, s.basis)
	if s.lu != nil && s.lu.m == s.m {
		b.factor = &warmFactor{
			lu:         s.lu,
			updates:    append([]eta(nil), s.updates...),
			nnz:        s.updateNnz,
			buildWork:  s.buildWork,
			updateWork: s.updateWork,
		}
	}
	return b
}

// infeasibility returns the total bound violation of basic variables.
func (s *simplex) infeasibility() float64 {
	sum := 0.0
	for r := 0; r < s.m; r++ {
		sum += s.violation(r)
	}
	return sum
}

// violation returns how far the basic value of row r lies outside its
// variable's bounds, and +0 inside them. Adding the +0 leaves any
// running sum's bits alone, so a sum over any superset of the violated
// rows, in ascending order, has infeasibility's bits.
func (s *simplex) violation(r int) float64 {
	j, x := s.basis[r], s.xB[r]
	if lo := s.lob(j); x < lo {
		return lo - x
	}
	if hi := s.hib(j); x > hi {
		return x - hi
	}
	return 0
}

// rebuildInfeasible rescans every row into the infeasible set; it runs
// wherever all of x_B is recomputed.
func (s *simplex) rebuildInfeasible() {
	s.infeas.empty()
	for r := 0; r < s.m; r++ {
		if s.violation(r) != 0 {
			s.infeas.touch(r)
		}
	}
}

// pruneInfeasible drops the rows of the infeasible set whose basic
// value is back inside its bounds, leaving exactly the violated rows.
func (s *simplex) pruneInfeasible() {
	kept := s.infeas.nz[:0]
	for _, r := range s.infeas.nz {
		if s.violation(r) != 0 {
			kept = append(kept, r)
		} else {
			s.infeas.in.unset(r)
		}
	}
	s.infeas.nz = kept
}

// phase1Infeasibility prunes the infeasible set, lists it ascending
// and returns infeasibility() summed over it: the same terms in the
// same order, so the same bits.
func (s *simplex) phase1Infeasibility() float64 {
	s.pruneInfeasible()
	ascend(s.infeas.in, s.infeas.nz)
	sum := 0.0
	for _, r := range s.infeas.nz {
		sum += s.violation(r)
	}
	return sum
}

// costOf returns the effective cost of a variable in the current phase.
func (s *simplex) costOf(j int, phase1 bool) float64 {
	if phase1 {
		if s.state[j] != stBasic {
			return 0
		}
		x := s.xB[s.inRow[j]]
		if x < s.lob(j)-feasTol {
			return -1
		}
		if x > s.hib(j)+feasTol {
			return 1
		}
		return 0
	}
	if j < s.n {
		return s.cost[j]
	}
	return 0
}

// ratioTest finds the blocking basic variable for the entering column
// currently in the accumulator. It returns the leaving row slot (-1
// for a bound flip), which bound the leaving variable hits, the step
// limit, and the largest |w| seen (callers use it to judge the pivot
// magnitude). Tie-breaking among rows at the minimum ratio: normally
// the largest pivot (numerical stability), but under Bland's rule the
// smallest basis index — the anti-cycling guarantee needs the
// smallest-index rule on BOTH the entering and the leaving choice,
// and with only the entering side covered the search can stall on a
// degenerate face indefinitely (observed on a presolved allocator
// ILP: 85k+ zero-step pivots at the optimal objective without
// termination).
func (s *simplex) ratioTest(enter int, enterDir float64, phase1 bool, tol float64) (leave int, leaveToUpper bool, limit, maxAbsW float64) {
	limit = s.hib(enter) - s.lob(enter) // bound-to-bound flip distance
	if s.state[enter] == stZero {
		limit = Inf
	}
	leave = -1
	bestPiv := 0.0
	for _, r := range s.w.nz {
		wr := s.w.x[r]
		aw := math.Abs(wr)
		if aw > maxAbsW {
			maxAbsW = aw
		}
		if aw < 1e-9 {
			continue
		}
		j := s.basis[r]
		x := s.xB[r]
		lo, hi := s.lob(j), s.hib(j)
		// Basic j moves at rate -wr*enterDir per unit of entering.
		rate := -wr * enterDir
		var room float64
		var toUpper bool
		if phase1 {
			// Infeasible basics move to their violated bound;
			// feasible basics stay within their bounds.
			switch {
			case x < lo-tol:
				if rate > 0 {
					room, toUpper = (lo-x)/rate, false
				} else {
					continue
				}
			case x > hi+tol:
				if rate < 0 {
					room, toUpper = (hi-x)/rate, true
				} else {
					continue
				}
			default:
				if rate > 0 {
					if hi == Inf {
						continue
					}
					room, toUpper = (hi-x)/rate, true
				} else {
					if lo == math.Inf(-1) {
						continue
					}
					room, toUpper = (lo-x)/rate, false
				}
			}
		} else {
			if rate > 0 {
				if hi == Inf {
					continue
				}
				room, toUpper = (hi-x)/rate, true
			} else {
				if lo == math.Inf(-1) {
					continue
				}
				room, toUpper = (lo-x)/rate, false
			}
		}
		if room < 0 {
			room = 0
		}
		better := room < limit-1e-12
		if !better && room < limit+1e-12 {
			if s.bland {
				better = leave < 0 || s.basis[r] < s.basis[leave]
			} else {
				better = aw > bestPiv
			}
		}
		if better {
			limit = room
			leave = r
			leaveToUpper = toUpper
			bestPiv = aw
		}
	}
	return leave, leaveToUpper, limit, maxAbsW
}

// run iterates the primal simplex until optimality for the phase,
// with Dantzig pricing (most negative reduced cost) and Bland's rule
// after long degenerate runs. Phase 1 always uses this loop; phase 2
// only after a devex Bland handoff. A
// non-nil error is a refactorization failure that already consumed
// the recovery retry (solve restarts on it); the Status is meaningful
// only when the error is nil. Options.Deadline, when set, is checked
// every 256 iterations and returns IterLimit once passed.
func (s *simplex) run(phase1 bool) (Status, error) {
	tol := feasTol
	checkClock := !s.opts.Deadline.IsZero()
	for ; s.iter < s.opts.MaxIters; s.iter++ {
		if checkClock && s.iter&255 == 0 && time.Now().After(s.opts.Deadline) {
			return IterLimit, nil
		}
		var infeas float64
		if phase1 {
			if infeas = s.phase1Infeasibility(); infeas <= tol {
				return Optimal, nil
			}
		}
		enter := -1
		var enterDir float64
		best := tol
		if phase1 {
			// The phase-1 costs are nonzero only on infeasible basics,
			// a subset of the (now sorted) infeasible set: y = Btran(cB)
			// is hypersparse, and d_j = -y·a_j is nonzero only on the
			// columns priceRow touches. They come in touch order, so
			// ties go to the lowest index explicitly: the choice is the
			// one an ascending scan of every column makes.
			s.rho.clear()
			for _, r := range s.infeas.nz {
				if c := s.costOf(s.basis[r], true); c != 0 {
					s.rho.x[r] = c
					s.rho.touch(r)
				}
			}
			s.btranRho()
			s.priceRow()
			for _, j := range s.alpha.nz {
				if s.state[j] == stBasic {
					continue
				}
				score, dir := dantzigScore(s.state[j], -s.alpha.x[j], tol)
				if score <= tol {
					continue
				}
				if s.bland { // Bland: lowest eligible index
					if enter < 0 || j < enter {
						enter, enterDir = j, dir
					}
				} else if score > best || (score == best && j < enter) {
					best, enter, enterDir = score, j, dir
				}
			}
		} else {
			// y = Btran(cB), then price every nonbasic.
			for r := 0; r < s.m; r++ {
				s.y[r] = s.costOf(s.basis[r], false)
			}
			s.btran(s.y)
			for j := 0; j < s.n+s.m; j++ {
				if s.state[j] == stBasic {
					continue
				}
				d := s.costOf(j, false)
				s.column(j, func(row int, val float64) {
					d -= s.y[row] * val
				})
				if score, dir := dantzigScore(s.state[j], d, tol); score > best {
					best, enter, enterDir = score, j, dir
					if s.bland {
						break // Bland: first eligible index
					}
				}
			}
		}
		if enter < 0 {
			if phase1 && infeas > tol {
				return Infeasible, nil
			}
			return Optimal, nil
		}
		// w = Ftran(column of entering variable)
		s.w.clear()
		s.scatterColumn(enter)
		s.ftranW()

		leave, leaveToUpper, limit, maxAbsW := s.ratioTest(enter, enterDir, phase1, tol)
		if limit == Inf {
			return Unbounded, nil
		}
		if limit <= 1e-11 {
			s.degenerate++
			s.degenTotal++
			if s.degenerate > 1000 {
				s.bland = true
			}
		} else {
			s.degenerate = 0
		}
		step := enterDir * limit
		s.stepXB(step)
		if leave < 0 {
			// Bound flip of the entering variable.
			if s.state[enter] == stLower {
				s.state[enter] = stUpper
			} else {
				s.state[enter] = stLower
			}
			continue
		}
		piv := math.Abs(s.w.x[leave])
		s.pivot(enter, leave, leaveToUpper, step)
		if _, err := s.maybeRefactor(piv < 1e-8*maxAbsW); err != nil {
			return IterLimit, err
		}
	}
	return IterLimit, nil
}

// stepXB moves every basic value by -w·step, w the FTRAN image of
// the entering column in the accumulator, and adds the rows it moves
// to the infeasible set.
func (s *simplex) stepXB(step float64) {
	for _, r := range s.w.nz {
		if s.w.x[r] != 0 {
			s.xB[r] -= s.w.x[r] * step
			s.infeas.touch(r)
		}
	}
}

// pivot makes the entering variable basic in row slot leave once
// stepXB has moved the basic values by step: the leaving variable goes
// nonbasic at the bound it hit (held at zero if it has none), the
// accumulator's FTRAN image becomes an update eta, and the entering
// variable takes its new value. Row leave is in the infeasible set
// already: its pivot element is nonzero, so stepXB added it.
func (s *simplex) pivot(enter, leave int, leaveToUpper bool, step float64) {
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
	s.pushEtaW(leave)
	s.xB[leave] = enterVal
}

// dantzigScore returns |d| and the direction that moves nonbasic
// variable j (state st, reduced cost d) off its bound when that
// improves the phase objective by more than tol, and zeros otherwise.
func dantzigScore(st varState, d, tol float64) (score, dir float64) {
	switch st {
	case stLower:
		if d < -tol {
			return -d, 1
		}
	case stUpper:
		if d > tol {
			return d, -1
		}
	case stZero:
		if d < -tol {
			return -d, 1
		} else if d > tol {
			return d, -1
		}
	}
	return 0, 0
}

// refactor collapses the update file into a fresh LU factorization of
// the current basis, recomputes the basic values and restarts the
// refactorization clock from the work both took. Singular bases
// are repaired by swapping in slacks; a repair conflict (a slack
// needed for an unpivoted row while basic elsewhere) returns a
// *StabilityError instead of guessing, and solve restarts once from
// the crash basis — which, starting from the identity, cannot
// conflict.
func (s *simplex) refactor() error {
	s.refactors++
	depth := len(s.updates)
	s.cadence += depth
	if fpRefactorFail.Fire() {
		return &StabilityError{Stage: "refactor", Detail: "injected repair conflict", EtaDepth: depth}
	}
	s.clearUpdates()
	s.work = 0
	if err := s.factorize(); err != nil {
		var se *StabilityError
		if errors.As(err, &se) {
			se.EtaDepth = depth
		}
		return err
	}
	s.recomputeXB()
	s.buildWork = s.work
	return nil
}

// maybeRefactor rebuilds the factorization when its update file is
// due (refactorDue) or when the caller saw a pivot bad enough to
// distrust the arithmetic (force). It reports whether a
// refactorization happened so callers can refresh state derived from
// the old factors.
func (s *simplex) maybeRefactor(force bool) (bool, error) {
	if !force && !s.refactorDue(len(s.updates), s.updateWork, s.buildWork) {
		return false, nil
	}
	return true, s.refactor()
}

// refactorDue reports whether an update file of depth etas, which has
// cost updateWork on a factorization that cost buildWork, should be
// collapsed. With Options.RefactorGap set the depth alone decides.
// Otherwise the work clock does (Huangfu & Hall 2018): every pass
// through the file costs more as it grows, so once the passes since
// the build have cost as much as the build, a rebuild is cheaper than
// carrying on.
func (s *simplex) refactorDue(depth, updateWork, buildWork int) bool {
	if g := s.opts.RefactorGap; g > 0 {
		return depth >= g
	}
	return updateWork >= buildWork
}
