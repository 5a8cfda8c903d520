package model

import (
	"math"

	"repro/internal/lp"
)

// Presolve: the reductions CPLEX applies before branch and bound, run
// by Solve between the model and the solver. The paper's models are
// full of rows that fix variables outright — singleton rows pinning a
// binary, implication rows (x <= y with y already forced), forcing
// rows whose activity range collapses onto a bound — and every column
// removed here shrinks all downstream node LPs. The pass iterates
// bound propagation to a fixpoint, then substitutes fixed columns out
// of the problem; an index remap expands solver solutions back to
// original coordinates, so callers (Value, Lookup, WriteMPS) never see
// reduced indices.

// PresolveInfo reports the reductions of a presolve run.
type PresolveInfo struct {
	FixedVars   int // columns substituted out of the problem
	DroppedRows int // rows removed (redundant, singleton, or emptied)
	Rounds      int // propagation rounds until fixpoint
}

// presolved is a reduced problem plus the remap back to the original.
type presolved struct {
	p          *lp.Problem
	integer    []bool
	colMap     []int     // original col -> reduced col, -1 if eliminated
	fixed      []float64 // value of each eliminated original col
	objConst   float64   // objective contribution of eliminated cols
	infeasible bool
	info       PresolveInfo
}

const preTol = 1e-9

// presolve reduces (p, integer). maxRounds <= 0 means the default cap.
func presolve(p *lp.Problem, integer []bool, maxRounds int) *presolved {
	if maxRounds <= 0 {
		maxRounds = 10
	}
	n := p.NumCols()
	m := p.NumRows()
	pre := &presolved{colMap: make([]int, n), fixed: make([]float64, n)}

	// Working copies of the bounds; fixing a column means lo == hi.
	lob := make([]float64, n)
	hib := make([]float64, n)
	for j := 0; j < n; j++ {
		lob[j], hib[j] = p.Bounds(j)
		if integer[j] {
			lob[j] = math.Ceil(lob[j] - preTol)
			hib[j] = math.Floor(hib[j] + preTol)
		}
		if lob[j] > hib[j]+preTol {
			pre.infeasible = true
			return pre
		}
	}

	rowLo := make([]float64, m)
	rowHi := make([]float64, m)
	for r := 0; r < m; r++ {
		rowLo[r], rowHi[r] = p.RowBounds(r)
	}

	dropped := make([]bool, m)
	// tighten narrows column j to [lo, hi]; reports whether it changed.
	tighten := func(j int, lo, hi float64) bool {
		if integer[j] {
			lo = math.Ceil(lo - preTol)
			hi = math.Floor(hi + preTol)
		}
		changed := false
		if lo > lob[j]+preTol {
			lob[j] = lo
			changed = true
		}
		if hi < hib[j]-preTol {
			hib[j] = hi
			changed = true
		}
		if lob[j] > hib[j]+preTol {
			pre.infeasible = true
		}
		return changed
	}

	rounds := 0
	for ; rounds < maxRounds && !pre.infeasible; rounds++ {
		changed := false
		for r := 0; r < m && !pre.infeasible; r++ {
			if dropped[r] {
				continue
			}
			// Activity range of the row over current bounds, and the
			// count of columns still free to move.
			minAct, maxAct := 0.0, 0.0
			freeCols := 0
			lastFree := -1
			row := p.Row(r)
			for i, e := range row {
				j, a := e.Col, e.Val
				if a == 0 {
					continue // cancelled term; 0*Inf would poison the range
				}
				if lob[j] < hib[j]-preTol {
					freeCols++
					lastFree = i
				}
				if a > 0 {
					minAct += a * lob[j]
					maxAct += a * hib[j]
				} else {
					minAct += a * hib[j]
					maxAct += a * lob[j]
				}
			}
			switch {
			case minAct > rowHi[r]+1e-7 || maxAct < rowLo[r]-1e-7:
				pre.infeasible = true
			case minAct >= rowLo[r]-preTol && maxAct <= rowHi[r]+preTol:
				// Redundant: satisfied by every point in the box.
				dropped[r] = true
				changed = true
			case freeCols == 1:
				// Effective singleton: the one free column must keep
				// the fixed part inside the row bounds on its own.
				i := lastFree
				j, a := row[i].Col, row[i].Val
				rest := 0.0
				for k, e := range row {
					if k != i && e.Val != 0 {
						rest += e.Val * lob[e.Col]
					}
				}
				lo, hi := (rowLo[r]-rest)/a, (rowHi[r]-rest)/a
				if a < 0 {
					lo, hi = hi, lo
				}
				if tighten(j, lo, hi) {
					changed = true
				}
				// The bound now enforces the row; for an equality on an
				// integer column the fixpoint fixes it next round.
			case maxAct <= rowLo[r]+preTol:
				// Forcing at the max: the row's >= side is attainable
				// only with every column at its max-contribution bound.
				for _, e := range row {
					if j := e.Col; e.Val > 0 {
						tighten(j, hib[j], hib[j])
					} else if e.Val < 0 {
						tighten(j, lob[j], lob[j])
					}
				}
				dropped[r] = true
				changed = true
			case minAct >= rowHi[r]-preTol:
				// Forcing at the min (the <= side is tight).
				for _, e := range row {
					if j := e.Col; e.Val > 0 {
						tighten(j, lob[j], lob[j])
					} else if e.Val < 0 {
						tighten(j, hib[j], hib[j])
					}
				}
				dropped[r] = true
				changed = true
			}
		}
		if !changed {
			rounds++
			break
		}
	}
	pre.info.Rounds = rounds
	if pre.infeasible {
		return pre
	}

	// Rebuild: substitute fixed columns out, remap the rest. The
	// original's sizes bound the reduced problem's, so its stores are
	// reserved once.
	q := lp.NewProblem()
	q.Grow(n, m, p.NumNonzeros())
	for j := 0; j < n; j++ {
		if lob[j] >= hib[j]-preTol {
			pre.colMap[j] = -1
			pre.fixed[j] = lob[j]
			pre.objConst += p.Obj(j) * lob[j]
			pre.info.FixedVars++
			continue
		}
		pre.colMap[j] = q.AddCol(p.Obj(j), lob[j], hib[j])
		pre.integer = append(pre.integer, integer[j])
	}
	var cols []int
	var vals []float64
	for r := 0; r < m; r++ {
		if dropped[r] {
			pre.info.DroppedRows++
			continue
		}
		cols, vals = cols[:0], vals[:0]
		shift := 0.0
		for _, e := range p.Row(r) {
			if pre.colMap[e.Col] < 0 {
				shift += e.Val * pre.fixed[e.Col]
				continue
			}
			cols = append(cols, pre.colMap[e.Col])
			vals = append(vals, e.Val)
		}
		lo, hi := rowLo[r]-shift, rowHi[r]-shift
		if len(cols) == 0 {
			if lo > 1e-7 || hi < -1e-7 {
				pre.infeasible = true
				return pre
			}
			pre.info.DroppedRows++
			continue
		}
		q.AddRow(lo, hi, cols, vals)
	}
	pre.p = q
	return pre
}

// expand maps a reduced solution vector back to original coordinates.
func (pre *presolved) expand(x []float64) []float64 {
	out := make([]float64, len(pre.colMap))
	for j, rj := range pre.colMap {
		if rj < 0 {
			out[j] = pre.fixed[j]
		} else {
			out[j] = x[rj]
		}
	}
	return out
}
