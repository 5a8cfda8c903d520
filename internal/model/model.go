package model

import (
	"math"
	"sync/atomic"

	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/obs"
)

// Presolve-reduction counters (DESIGN.md §8), bumped once per
// presolved Solve so a window's deltas show how much the modeling
// layer removed before the tree search saw the problem.
var (
	cPreSolves  = obs.NewCounter("mip/presolve/solves")
	cPreFixed   = obs.NewCounter("mip/presolve/fixed_vars")
	cPreDropped = obs.NewCounter("mip/presolve/dropped_rows")
	cPreRounds  = obs.NewCounter("mip/presolve/rounds")
)

// Model is an ILP under construction. Columns and rows are addressed
// by index only: the caller keeps whatever typed keys it needs.
type Model struct {
	lp      *lp.Problem
	integer []bool
	preInfo atomic.Pointer[PresolveInfo] // reductions of the last presolved Solve

	// compact's scratch: the merged row, and each column's place in it
	// plus one (zero outside a compact call).
	rowCols []int
	rowVals []float64
	colPos  []int32
}

// New returns an empty model.
func New() *Model {
	return &Model{lp: lp.NewProblem()}
}

// FromILP wraps an existing problem and integrality mask as a Model,
// giving problems built directly on an lp.Problem (the generated
// instances of the solver, cache and MPS tests) the model-layer
// services: Canonicalize, CheckFeasible, WriteMPS and presolved Solve.
// The problem is adopted directly, not cloned.
func FromILP(p *lp.Problem, integer []bool) *Model {
	m := &Model{lp: p}
	m.integer = append([]bool(nil), integer...)
	for len(m.integer) < p.NumCols() {
		m.integer = append(m.integer, false)
	}
	return m
}

// Binary appends a fresh 0-1 column with objective coefficient 0 and
// returns its index.
func (m *Model) Binary() int {
	c := m.lp.AddCol(0, 0, 1)
	m.integer = append(m.integer, true)
	return c
}

// Continuous appends a fresh continuous column on [lo, hi] with
// objective coefficient 0 and returns its index.
func (m *Model) Continuous(lo, hi float64) int {
	c := m.lp.AddCol(0, lo, hi)
	m.integer = append(m.integer, false)
	return c
}

// ObjAdd adds coef to a variable's objective coefficient.
func (m *Model) ObjAdd(col int, coef float64) {
	m.lp.SetObj(col, m.lp.Obj(col)+coef)
}

// Expr is a linear expression under construction.
type Expr struct {
	cols  []int
	coefs []float64
}

// NewExpr returns an empty expression.
func NewExpr() *Expr { return &Expr{} }

// Add appends coef*col and returns the expression for chaining.
func (e *Expr) Add(coef float64, col int) *Expr {
	e.cols = append(e.cols, col)
	e.coefs = append(e.coefs, coef)
	return e
}

// Len returns the number of terms.
func (e *Expr) Len() int { return len(e.cols) }

// compact merges e's duplicate columns into one row: each column at
// its first place, its coefficients added in term order. The row is
// the model's scratch, valid until the next call.
func (m *Model) compact(e *Expr) ([]int, []float64) {
	if n := m.lp.NumCols(); len(m.colPos) < n {
		m.colPos = append(m.colPos, make([]int32, n-len(m.colPos))...)
	}
	cols, vals := m.rowCols[:0], m.rowVals[:0]
	for i, c := range e.cols {
		if at := m.colPos[c]; at > 0 {
			vals[at-1] += e.coefs[i]
			continue
		}
		cols = append(cols, c)
		vals = append(vals, e.coefs[i])
		m.colPos[c] = int32(len(cols))
	}
	for _, c := range cols {
		m.colPos[c] = 0
	}
	m.rowCols, m.rowVals = cols, vals
	return cols, vals
}

// Le adds the row expr <= rhs.
func (m *Model) Le(e *Expr, rhs float64) {
	cols, coefs := m.compact(e)
	m.lp.AddRow(-lp.Inf, rhs, cols, coefs)
}

// Ge adds the row expr >= rhs.
func (m *Model) Ge(e *Expr, rhs float64) {
	cols, coefs := m.compact(e)
	m.lp.AddRow(rhs, lp.Inf, cols, coefs)
}

// Eq adds the row expr = rhs.
func (m *Model) Eq(e *Expr, rhs float64) {
	cols, coefs := m.compact(e)
	m.lp.AddRow(rhs, rhs, cols, coefs)
}

// Stats are the model-size numbers Figure 7 reports.
type Stats struct {
	Vars        int
	Constraints int
	ObjTerms    int
	Nonzeros    int

	// Presolve reports the reductions applied by the most recent
	// presolved Solve call; nil before the first solve or when
	// presolve was disabled for it.
	Presolve *PresolveInfo
}

// Stats computes the current model statistics.
func (m *Model) Stats() Stats {
	return Stats{
		Vars:        m.lp.NumCols(),
		Constraints: m.lp.NumRows(),
		ObjTerms:    m.lp.ObjTerms(),
		Nonzeros:    m.lp.NumNonzeros(),
		Presolve:    m.preInfo.Load(),
	}
}

// LP exposes the underlying problem (for bounds fixing in tests).
func (m *Model) LP() *lp.Problem { return m.lp }

// IntegerMask reports which columns are integer-constrained. The
// returned slice is shared; callers must not mutate it.
func (m *Model) IntegerMask() []bool { return m.integer }

// Solve presolves the model (unless opts.Presolve < 0) and runs branch
// and bound on the reduction. Solutions are reported in the model's
// own coordinates — presolve's column remap is applied on the way out,
// so res.X[col] is unaffected by which columns were substituted away.
// Parallelism is controlled by opts.Workers (default: all cores); the
// solver searches on clones of the reduced problem, so the model
// itself stays readable (Stats, Canonicalize) while a solve runs
// elsewhere.
func (m *Model) Solve(opts *mip.Options) (*mip.Result, error) {
	var o mip.Options
	if opts != nil {
		o = *opts
	}
	if o.Presolve < 0 {
		m.preInfo.Store(nil)
		return mip.Solve(m.lp, m.integer, &o)
	}
	sp := obs.StartSpan("mip/presolve")
	pre := presolve(m.lp, m.integer, o.Presolve)
	sp.End()
	cPreSolves.Inc()
	cPreFixed.Add(int64(pre.info.FixedVars))
	cPreDropped.Add(int64(pre.info.DroppedRows))
	cPreRounds.Add(int64(pre.info.Rounds))
	m.preInfo.Store(&pre.info)
	if pre.infeasible {
		return &mip.Result{Status: mip.Infeasible, Obj: math.Inf(1)}, nil
	}
	if pre.p.NumCols() == 0 {
		// Presolve solved the whole model; no search needed.
		obj := pre.objConst
		return &mip.Result{
			Status: mip.Optimal, X: pre.expand(nil),
			Obj: obj, RootObj: obj,
		}, nil
	}
	// Remap the option fields expressed in original coordinates.
	o.ObjOffset += pre.objConst
	if opts != nil && opts.Priority != nil {
		pri := make([]int, pre.p.NumCols())
		for j, rj := range pre.colMap {
			if rj >= 0 {
				pri[rj] = opts.Priority[j]
			}
		}
		o.Priority = pri
	}
	if userH := o.Heuristic; userH != nil {
		o.Heuristic = func(x []float64) ([]float64, bool) {
			full, ok := userH(pre.expand(x))
			if !ok {
				return nil, false
			}
			red := make([]float64, pre.p.NumCols())
			for j, rj := range pre.colMap {
				if rj >= 0 {
					red[rj] = full[j]
				} else if math.Abs(full[j]-pre.fixed[j]) > 1e-6 {
					// The completion contradicts a presolve-fixed
					// variable, so it cannot be feasible.
					return nil, false
				}
			}
			return red, true
		}
	}
	res, err := mip.Solve(pre.p, pre.integer, &o)
	if err != nil || res == nil {
		return res, err
	}
	if res.X != nil {
		res.X = pre.expand(res.X)
	}
	res.Obj += pre.objConst
	res.RootObj += pre.objConst
	return res, nil
}
