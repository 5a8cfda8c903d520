package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Inf is the bound value for unbounded directions.
var Inf = math.Inf(1)

// Nz is one nonzero coefficient of a column.
type Nz struct {
	Row int
	Val float64
}

// RowNz is one nonzero coefficient of a row.
type RowNz struct {
	Col int
	Val float64
}

// Problem is a linear program. Its constraint matrix is built row by
// row (AddCol, AddRow) and frozen by its first read (Solve, Clone, Col,
// Row): from then on it is immutable, and AddCol and AddRow panic. The
// objective and the column bounds stay editable (SetObj, SetBounds).
type Problem struct {
	obj []float64
	lo  []float64
	hi  []float64

	// a is the constraint matrix with its row bounds. Clones share it,
	// so it is frozen before the first Clone.
	a      *matrix
	freeze sync.Once

	// work holds the workspace the last solve left, for the next solve
	// to recycle. A solve takes it out while it runs, so a concurrent
	// solve finds none and builds its own; a clone starts without one.
	work atomic.Pointer[simplex]
}

// matrix is a constraint matrix and its row bounds. AddRow appends row
// r's nonzeros to rnz[rptr[r]:rptr[r+1]] in the order given; freezing
// sorts each row by column (stably, so repeated columns keep their
// order) and adds the column-wise copy: column j's nonzeros are
// cnz[cptr[j]:cptr[j+1]], by ascending row. Once frozen it never
// changes, so concurrent solves and clones read it freely.
type matrix struct {
	rowLo, rowHi []float64
	rptr         []int32
	rnz          []RowNz

	frozen bool
	cptr   []int32
	cnz    []Nz
}

// col returns the nonzeros of structural column j.
func (a *matrix) col(j int) []Nz {
	return a.cnz[a.cptr[j]:a.cptr[j+1]:a.cptr[j+1]]
}

// row returns the nonzeros of row r.
func (a *matrix) row(r int) []RowNz {
	return a.rnz[a.rptr[r]:a.rptr[r+1]:a.rptr[r+1]]
}

// build freezes the matrix of a problem with n columns.
func (a *matrix) build(n int) {
	byCol := func(x, y RowNz) int { return cmp.Compare(x.Col, y.Col) }
	a.cptr = make([]int32, n+1)
	for r := range a.rowLo {
		row := a.row(r)
		slices.SortStableFunc(row, byCol)
		for _, e := range row {
			a.cptr[e.Col+1]++
		}
	}
	for j := 0; j < n; j++ {
		a.cptr[j+1] += a.cptr[j]
	}
	a.cnz = make([]Nz, len(a.rnz))
	next := slices.Clone(a.cptr[:n])
	for r := range a.rowLo {
		for _, e := range a.row(r) {
			a.cnz[next[e.Col]] = Nz{Row: r, Val: e.Val}
			next[e.Col]++
		}
	}
	a.frozen = true
}

// matrix returns the problem's frozen matrix, freezing it on first use.
func (p *Problem) matrix() *matrix {
	p.freeze.Do(func() { p.a.build(len(p.obj)) })
	return p.a
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{a: &matrix{rptr: []int32{0}}} }

// NumCols returns the number of structural variables.
func (p *Problem) NumCols() int { return len(p.obj) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.a.rowLo) }

// NumNonzeros returns the number of structural matrix coefficients.
// Freezing does not change it, so it does not freeze the matrix.
func (p *Problem) NumNonzeros() int { return len(p.a.rnz) }

// AddCol adds a variable with the given objective coefficient and
// bounds, returning its index. It panics once the matrix is frozen.
func (p *Problem) AddCol(obj, lo, hi float64) int {
	if p.a.frozen {
		panic("lp: AddCol on a frozen matrix")
	}
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	return len(p.obj) - 1
}

// AddRow adds a constraint lo <= sum coefs <= hi, returning its index.
// Use equal bounds for an equation. Zero coefficients are dropped. It
// panics once the matrix is frozen, and on a column index out of range.
func (p *Problem) AddRow(lo, hi float64, cols []int, vals []float64) int {
	a := p.a
	if a.frozen {
		panic("lp: AddRow on a frozen matrix")
	}
	for i, c := range cols {
		if c < 0 || c >= len(p.obj) {
			panic(fmt.Sprintf("lp: AddRow: column %d out of range [0, %d)", c, len(p.obj)))
		}
		if vals[i] != 0 {
			a.rnz = append(a.rnz, RowNz{Col: c, Val: vals[i]})
		}
	}
	a.rptr = append(a.rptr, int32(len(a.rnz)))
	a.rowLo = append(a.rowLo, lo)
	a.rowHi = append(a.rowHi, hi)
	return len(a.rowLo) - 1
}

// Grow reserves room for cols more columns, rows more rows and
// nonzeros more matrix coefficients, so that many AddCol and AddRow
// calls do not reallocate. It panics once the matrix is frozen.
func (p *Problem) Grow(cols, rows, nonzeros int) {
	a := p.a
	if a.frozen {
		panic("lp: Grow on a frozen matrix")
	}
	p.obj = slices.Grow(p.obj, cols)
	p.lo = slices.Grow(p.lo, cols)
	p.hi = slices.Grow(p.hi, cols)
	a.rptr = slices.Grow(a.rptr, rows)
	a.rowLo = slices.Grow(a.rowLo, rows)
	a.rowHi = slices.Grow(a.rowHi, rows)
	a.rnz = slices.Grow(a.rnz, nonzeros)
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

// Col returns the nonzeros of a column by ascending row, freezing the
// matrix. The slice is shared; callers must not mutate it.
func (p *Problem) Col(col int) []Nz { return p.matrix().col(col) }

// Row returns the nonzeros of a row by ascending column, freezing the
// matrix; a column AddRow was given twice appears twice, in the order
// given. The slice is shared; callers must not mutate it.
func (p *Problem) Row(row int) []RowNz { return p.matrix().row(row) }

// RowBounds returns a constraint's range.
func (p *Problem) RowBounds(row int) (lo, hi float64) { return p.a.rowLo[row], p.a.rowHi[row] }

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

// String returns the status in lower case, as logs and stats print it.
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
// row and column counts — in particular a Clone with changed bounds,
// the branch-and-bound case. Snapshots are immutable; they may be
// shared across goroutines.
type Basis struct {
	State []int8 // varState values, length NumCols()+NumRows()
	Order []int  // Order[r] = variable occupying basis row slot r

	// factor optionally carries the LU factorization, its file of
	// product-form update etas and its refactorization clock from the
	// solve that produced the snapshot. A warm-started re-solve on the
	// same frozen matrix (the Problem's or a clone's) adopts it instead
	// of refactorizing and resumes the clock, so a branch-and-bound
	// node pays for a factorization only once the passes through the
	// update file have cost as much as building it. The payload is
	// frozen and shared; it is never mutated in place.
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
// shared by concurrent solves of different problems. Solve freezes the
// matrix. The Problem keeps the solver workspace its last solve used
// and recycles it for the next solve; concurrent solves of one Problem
// are safe, each but one building a workspace of its own.
func (p *Problem) Solve(opts *Options) (*Solution, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.fill(p)
	s := p.work.Swap(nil)
	if s != nil && s.a == p.matrix() {
		s.recycle(&o)
	} else {
		s = newSimplex(p, &o)
	}
	sol, err := s.solve()
	s.opts.WarmBasis, s.lu = nil, nil // retain no snapshot or factor
	p.work.Store(s)
	return sol, err
}

// Clone returns a copy of the problem with its own objective and
// column bounds, sharing the frozen matrix and row bounds. Branch-and-
// bound workers each own a clone, since bounds are mutated in place
// during search.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		obj: slices.Clone(p.obj),
		lo:  slices.Clone(p.lo),
		hi:  slices.Clone(p.hi),
		a:   p.matrix(),
	}
	q.freeze.Do(func() {}) // q.a is frozen already
	return q
}

// Method selects the simplex algorithm for a solve.
type Method int

const (
	// MethodAuto runs the dual simplex whenever the start is dual
	// feasible and primal infeasible: from a usable warm basis (the
	// branch-and-bound re-solve case, where a bound change leaves the
	// old basis dual feasible), and cold from
	// the crash basis on perturbed costs when every column sits at the
	// bound its cost prefers (the allocator's root LP). Any other solve,
	// and any dual run that bails, takes the two-phase primal simplex;
	// the answer is never affected, only the path.
	MethodAuto Method = iota
	// MethodPrimal forces the two-phase primal simplex on every solve,
	// the reference path the dual simplex is tested against.
	MethodPrimal
)

// feasTol is the feasibility and optimality tolerance of every solve.
const feasTol = 1e-7

// Options tunes the solver.
type Options struct {
	MaxIters int // 0 means automatic (scaled with problem size)
	// RefactorGap, when positive, fixes the refactorization cadence: the
	// factorization is rebuilt once this many update etas are stacked
	// on it. Zero (the default) rebuilds by the work clock instead: once
	// the passes through the update etas have cost as much work as
	// building the factorization did.
	RefactorGap int

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
}

func (p *Problem) check() error {
	for j := range p.obj {
		if p.lo[j] > p.hi[j] {
			return fmt.Errorf("lp: column %d has lo > hi", j)
		}
	}
	for r, lo := range p.a.rowLo {
		if lo > p.a.rowHi[r] {
			return fmt.Errorf("lp: row %d has lo > hi", r)
		}
	}
	return nil
}
