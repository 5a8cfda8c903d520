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

	// The open row, its duplicate columns merged, and each column's
	// place in it plus one (zero for columns not in it).
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

// Term adds coef*col to the open row and returns m for chaining. A
// column already in the row has coef added to its coefficient, so
// each column keeps its first place and its terms sum in call order.
// Le, Ge or Eq closes the row; columns may be added while it is open.
func (m *Model) Term(coef float64, col int) *Model {
	for len(m.colPos) < m.lp.NumCols() {
		m.colPos = append(m.colPos, 0)
	}
	if at := m.colPos[col]; at > 0 {
		m.rowVals[at-1] += coef
		return m
	}
	m.rowCols = append(m.rowCols, col)
	m.rowVals = append(m.rowVals, coef)
	m.colPos[col] = int32(len(m.rowCols))
	return m
}

// addRow adds the open row on [lo, hi] and empties the buffer.
func (m *Model) addRow(lo, hi float64) {
	m.lp.AddRow(lo, hi, m.rowCols, m.rowVals)
	for _, c := range m.rowCols {
		m.colPos[c] = 0
	}
	m.rowCols, m.rowVals = m.rowCols[:0], m.rowVals[:0]
}

// Le adds the open row as row <= rhs.
func (m *Model) Le(rhs float64) { m.addRow(-lp.Inf, rhs) }

// Ge adds the open row as row >= rhs.
func (m *Model) Ge(rhs float64) { m.addRow(rhs, lp.Inf) }

// Eq adds the open row as row = rhs.
func (m *Model) Eq(rhs float64) { m.addRow(rhs, rhs) }

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
