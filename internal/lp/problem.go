package lp

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Inf is the bound value for unbounded directions.
var Inf = math.Inf(1)

// Nz is one nonzero coefficient.
type Nz struct {
	Row int
	Val float64
}

// Problem is a linear program under construction.
type Problem struct {
	cols  [][]Nz
	obj   []float64
	lo    []float64
	hi    []float64
	rowLo []float64
	rowHi []float64

	// matSig is an order-sensitive hash of the constraint matrix,
	// updated incrementally by AddCol/AddRow and copied by Clone. A
	// basis factorization is stamped with it, so a warm-started solve
	// only adopts a carried factorization when the matrix it was
	// computed on is (structurally) the same one being solved. Bound
	// and objective edits leave it alone — they do not change B.
	matSig uint64

	// rows caches the row-wise copy of the matrix for pivot-row
	// pricing (pricing.go), stamped with the matSig it copies. It is
	// immutable once stored, so concurrent solves and clones of the same
	// matrix share it.
	rows atomic.Pointer[rowMatrix]

	// work holds the workspace the last solve left, for the next solve
	// of the same matrix to recycle. A solve takes it out while it runs,
	// so a concurrent solve finds none and builds its own; a clone
	// starts without one.
	work atomic.Pointer[simplex]
}

// rowCopy returns the row-wise copy of the current matrix, building it
// on first use and whenever the matrix has changed since.
func (p *Problem) rowCopy() *rowMatrix {
	if a := p.rows.Load(); a != nil && a.sig == p.matSig {
		return a
	}
	a := newRowMatrix(p)
	p.rows.Store(a)
	return a
}

// mix folds one event into the matrix signature (FNV-style).
func (p *Problem) mix(x uint64) {
	h := (p.matSig ^ x) * 1099511628211
	p.matSig = h ^ (h >> 29)
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// NumCols returns the number of structural variables.
func (p *Problem) NumCols() int { return len(p.cols) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rowLo) }

// NumNonzeros returns the number of structural matrix coefficients.
func (p *Problem) NumNonzeros() int {
	n := 0
	for _, c := range p.cols {
		n += len(c)
	}
	return n
}

// AddCol adds a variable with the given objective coefficient and
// bounds, returning its index.
func (p *Problem) AddCol(obj, lo, hi float64) int {
	p.cols = append(p.cols, nil)
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.mix(0x9e3779b97f4a7c15 ^ uint64(len(p.cols)))
	return len(p.cols) - 1
}

// AddRow adds a constraint lo <= sum coefs <= hi, returning its index.
// Use equal bounds for an equation.
//
// Rows may be appended after a solve — the cutting-plane pattern. A
// re-solve warm-started from the pre-AddRow basis (Options.WarmBasis)
// restarts from that incumbent basis with the new rows' slacks basic,
// so separating a cut costs a short feasibility-restoring cleanup
// instead of a cold solve.
func (p *Problem) AddRow(lo, hi float64, cols []int, vals []float64) int {
	r := len(p.rowLo)
	p.rowLo = append(p.rowLo, lo)
	p.rowHi = append(p.rowHi, hi)
	p.mix(0xbf58476d1ce4e5b9 ^ uint64(r))
	for i, c := range cols {
		if vals[i] != 0 {
			p.cols[c] = append(p.cols[c], Nz{Row: r, Val: vals[i]})
			p.mix(uint64(c))
			p.mix(math.Float64bits(vals[i]))
		}
	}
	return r
}

// SetObj changes a variable's objective coefficient.
func (p *Problem) SetObj(col int, obj float64) { p.obj[col] = obj }

// SetBounds changes a variable's bounds.
func (p *Problem) SetBounds(col int, lo, hi float64) {
	p.lo[col] = lo
	p.hi[col] = hi
}

// Bounds returns a variable's bounds.
func (p *Problem) Bounds(col int) (lo, hi float64) { return p.lo[col], p.hi[col] }

// Obj returns a variable's objective coefficient.
func (p *Problem) Obj(col int) float64 { return p.obj[col] }

// Col returns the nonzeros of a column. The slice is shared; callers
// must not mutate it.
func (p *Problem) Col(col int) []Nz { return p.cols[col] }

// RowBounds returns a constraint's range.
func (p *Problem) RowBounds(row int) (lo, hi float64) { return p.rowLo[row], p.rowHi[row] }

// ObjTerms returns the number of nonzero objective coefficients — one
// of the model statistics Figure 7 reports.
func (p *Problem) ObjTerms() int {
	n := 0
	for _, c := range p.obj {
		if c != 0 {
			n++
		}
	}
	return n
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return "iteration-limit"
	}
}

// Basis is a snapshot of a simplex basis: the state of every variable
// (structurals 0..n-1 followed by the slacks of rows 0..m-1) and the
// variable occupying each basis row slot. A Basis taken from one solve
// can seed another via Options.WarmBasis on any problem with the same
// row/column structure — in particular a Clone with changed bounds, the
// branch-and-bound case — or on a problem that has since grown extra
// rows (the cutting-plane case: the snapshot rows must be a prefix and
// the structural columns identical; new rows' slacks enter the basis).
// Snapshots are immutable; they may be shared across goroutines.
type Basis struct {
	State []int8 // varState values, length NumCols()+NumRows()
	Order []int  // Order[r] = variable occupying basis row slot r

	// factor optionally carries the LU factorization and its
	// Forrest–Tomlin update file from the solve that produced the
	// snapshot. A warm-started re-solve on the same matrix (validated
	// by the matrix signature) adopts it instead of refactorizing, so
	// a branch-and-bound node pays for a factorization only when the
	// update file has grown past the refactorization cadence. The
	// payload is frozen and shared; it is never mutated in place.
	factor *warmFactor
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	X      []float64 // structural variable values
	Obj    float64
	Iters  int
	Basis  *Basis // final basis snapshot, for warm-starting re-solves
}

// Solve runs the simplex (see Method). A nil opts uses defaults. The
// options are copied before defaulting, so one Options value can be
// shared by concurrent solves of different problems. The Problem keeps
// the solver workspace its last solve used and recycles it for the
// next solve of the same matrix; concurrent solves of one Problem are
// safe, each but one building a workspace of its own.
func (p *Problem) Solve(opts *Options) (*Solution, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.fill(p)
	s := p.work.Swap(nil)
	if s != nil && s.m == p.NumRows() && s.n == p.NumCols() && s.sig == p.matSig {
		s.recycle(&o)
	} else {
		s = newSimplex(p, &o)
	}
	sol, err := s.solve()
	s.opts.WarmBasis, s.lu = nil, nil // retain no snapshot or factor
	p.work.Store(s)
	return sol, err
}

// Clone returns a deep copy of the problem. Branch-and-bound workers
// each own a clone, since bounds are mutated in place during search.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		cols:  make([][]Nz, len(p.cols)),
		obj:   append([]float64(nil), p.obj...),
		lo:    append([]float64(nil), p.lo...),
		hi:    append([]float64(nil), p.hi...),
		rowLo: append([]float64(nil), p.rowLo...),
		rowHi: append([]float64(nil), p.rowHi...),
	}
	for j, c := range p.cols {
		q.cols[j] = append([]Nz(nil), c...)
	}
	q.matSig = p.matSig
	q.rows.Store(p.rows.Load())
	return q
}

// Method selects the simplex algorithm for a solve.
type Method int

const (
	// MethodAuto runs the dual simplex whenever the start is dual
	// feasible and primal infeasible: from a usable warm basis (the
	// branch-and-bound re-solve case, where a bound change or an
	// appended row leaves the old basis dual feasible), and cold from
	// the crash basis on perturbed costs when every column sits at the
	// bound its cost prefers (the allocator's root LP). Any other solve,
	// and any dual run that bails, takes the two-phase primal simplex;
	// the answer is never affected, only the path.
	MethodAuto Method = iota
	// MethodPrimal forces the two-phase primal simplex on every solve,
	// the reference path the dual simplex is tested against.
	MethodPrimal
)

// Options tunes the solver.
type Options struct {
	MaxIters    int     // 0 means automatic (scaled with problem size)
	Tol         float64 // feasibility/optimality tolerance (default 1e-7)
	RefactorGap int     // eta count between refactorizations (default 128)

	// Deadline, when nonzero, is a hard wall-clock bound: the pivot
	// loop checks it every 256 iterations and the solve returns with
	// Status IterLimit once it has passed. The MIP layer threads its
	// budget through here so every node LP honors it.
	Deadline time.Time

	// WarmBasis, when non-nil, starts the simplex from this basis
	// instead of the all-slack crash basis. A snapshot that does not
	// match the problem's dimensions (or is internally inconsistent)
	// is ignored and the solve falls back to the crash basis.
	WarmBasis *Basis

	// Method selects the simplex variant (see MethodAuto).
	Method Method
}

func (o *Options) fill(p *Problem) {
	if o.MaxIters == 0 {
		o.MaxIters = 20000 + 40*(p.NumRows()+p.NumCols())
	}
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	if o.RefactorGap == 0 {
		o.RefactorGap = 128
	}
}

func (p *Problem) check() error {
	for j := range p.cols {
		if p.lo[j] > p.hi[j] {
			return fmt.Errorf("lp: column %d has lo > hi", j)
		}
	}
	for r := range p.rowLo {
		if p.rowLo[r] > p.rowHi[r] {
			return fmt.Errorf("lp: row %d has lo > hi", r)
		}
	}
	return nil
}
