package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/mir"
	"repro/internal/model"
	"repro/internal/obs"
)

// MoveRec is one physical relocation chosen by the solver.
type MoveRec struct {
	Point    int // see Result.BlockPoints for the point layout
	Block    mir.BlockID
	V        mir.Temp
	From, To Bank
	Weight   float64
	// CloneDup marks the second and later moves of one clone set with
	// identical endpoints at one point: the objective counts the
	// collection once (§10), but each is still a physical instruction.
	CloneDup bool
}

// Result is the allocation computed by the ILP (§5-§10): a bank for
// every temporary at every program point, colors (register numbers)
// for transfer-bank residents, and the inter-bank moves and spills the
// objective charged for.
type Result struct {
	Opts       Options
	ModelStats model.Stats
	MIP        *mip.Result
	// ObjConst is the cost of moves forced by pinned-bank arcs,
	// excluded from the LP objective; MIP.Obj + ObjConst is the total
	// weighted move cost.
	ObjConst float64
	// Fallback marks an allocation produced by the greedy fallback
	// allocator instead of the ILP (correct but unproven quality).
	Fallback bool

	// bankOf[r] is the bank of location web root r.
	bankOf []Bank
	// colors[v][b] is v's register number in transfer bank b, or -1.
	colors [][NumBanks]int

	Moves  []MoveRec
	Remats int // materializations from the constant bank C
	Spills int // moves into the spill space M

	graph *graph
	model *model.Model
}

// WriteMPS exports the solved integer program in fixed MPS format with
// canonical row/column naming (see model.WriteMPS), the bridge to
// external solvers.
func (r *Result) WriteMPS(w io.Writer) error {
	return r.model.WriteMPS(w)
}

// ModelLP returns a copy of the allocator's integer program — the LP
// relaxation (a Clone: its own bounds and objective over the shared,
// frozen matrix) plus the integrality mask — so tests and tools can
// probe the solver kernel on the paper's real models without aliasing
// the solved allocation.
func (r *Result) ModelLP() (*lp.Problem, []bool) {
	if r.model == nil {
		return nil, nil
	}
	mask := append([]bool(nil), r.model.IntegerMask()...)
	return r.model.LP().Clone(), mask
}

// SolveHook intercepts the allocator's ILP solve. The compile cache
// (internal/cache) implements it without core importing the cache.
//
// BeforeSolve runs after the model is fully built. Returning (x, true)
// serves x as the verified optimal solution and skips the solver
// entirely; (nil, false) lets the solve run. AfterSolve observes every
// solver-produced Optimal result so the hook can retain it.
type SolveHook interface {
	BeforeSolve(m *model.Model) (x []float64, served bool)
	AfterSolve(m *model.Model, res *mip.Result)
}

// BuildModel runs the front half of Allocate — the liveness/move graph
// and the §5-§10 ILP construction — and returns the unsolved model.
// Canonicalization-layer tests and tools use it to obtain the exact
// model a compile would solve.
func BuildModel(mp *mir.Program, opts Options) (*model.Model, error) {
	g, err := buildGraph(mp, opts)
	if err != nil {
		return nil, err
	}
	il, err := buildModel(g)
	if err != nil {
		return nil, err
	}
	return il.m, nil
}

// Allocate runs the complete ILP-based register/bank allocation for a
// MIR program (after SSU). The mipOpts default to the paper's 0.01%
// gap and a parallel tree search over all cores (mip.Options.Workers);
// the color-completion heuristic installed here is safe under that
// parallelism because the solver serializes heuristic calls.
func Allocate(mp *mir.Program, opts Options, mipOpts *mip.Options) (*Result, error) {
	sp := obs.StartSpan("phase/alloc/graph")
	g, err := buildGraph(mp, opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.StartSpan("phase/alloc/model")
	il, err := buildModel(g)
	sp.End()
	if err != nil {
		return nil, err
	}
	if mipOpts == nil {
		mipOpts = &mip.Options{}
	}
	if mipOpts.Priority == nil {
		// Branch banks before colors: colors are symmetric and are
		// completed combinatorially by the heuristic once banks are
		// integral.
		prio := make([]int, il.m.LP().NumCols())
		for _, r := range il.roots {
			for _, b := range g.locAllow[r].banks() {
				prio[il.posCol[r][b]] = 2
			}
		}
		for _, cv := range il.colorVars {
			for r := 0; r < XRegs; r++ {
				prio[cv.col+r] = 1
			}
		}
		mipOpts.Priority = prio
	}
	if mipOpts.Heuristic == nil {
		mipOpts.Heuristic = il.heuristic
	}
	// The relative gap is measured against the full move cost,
	// including the part fixed by pinned arcs.
	mipOpts.ObjOffset = il.objConst
	// Solve, then apply the failure policy (DESIGN.md §10): an ILP that
	// errors, proves infeasible, or halts with no incumbent hands over
	// to the greedy fallback allocator unless the caller turned it off.
	// A cancelled solve never falls back — the caller asked to stop,
	// not for a worse answer.
	var res *mip.Result
	var solveErr error
	usedFallback := false
	if opts.Fallback != FallbackForce {
		served := false
		if opts.Hook != nil {
			sp = obs.StartSpan("phase/alloc/cache")
			var x []float64
			x, served = opts.Hook.BeforeSolve(il.m)
			sp.End()
			if served {
				// The hook only serves solutions it has re-verified
				// against this model, so the allocation is as trusted as
				// a fresh solve; the objective is recomputed here rather
				// than taken from the cache.
				obj := il.m.Objective(x)
				res = &mip.Result{Status: mip.Optimal, X: x, Obj: obj, RootObj: obj}
			}
		}
		if !served {
			sp = obs.StartSpan("phase/alloc/solve")
			res, solveErr = il.m.Solve(mipOpts)
			sp.End()
			if opts.Hook != nil && solveErr == nil && res != nil && res.Status == mip.Optimal {
				opts.Hook.AfterSolve(il.m, res)
			}
		}
	}
	switch {
	case opts.Fallback == FallbackForce:
		res, solveErr = il.fallback()
		if solveErr != nil {
			return nil, solveErr
		}
		usedFallback = true
	case solveErr == nil && res.Status == mip.Optimal:
	case solveErr == nil && res.Status == mip.Cancelled && res.X == nil:
		return nil, fmt.Errorf("core: allocation cancelled before any incumbent was found")
	case solveErr == nil && res.Status != mip.Infeasible && res.X != nil:
		// A feasible incumbent within the budget (or from a degraded
		// search) is usable; only its optimality proof is missing.
	default:
		ilpErr := solveErr
		if ilpErr == nil {
			if res.Status == mip.Infeasible {
				ilpErr = fmt.Errorf("core: allocation model infeasible (program needs more registers than exist)")
			} else {
				ilpErr = fmt.Errorf("core: solver gave up (%v) with no incumbent", res.Status)
			}
		}
		if opts.Fallback == FallbackOff {
			return nil, ilpErr
		}
		// A verified greedy point refutes an Infeasible claim (it must
		// have been numerical); when the fallback cannot place the
		// program either, the original ILP failure is the better report.
		fres, ferr := il.fallback()
		if ferr != nil {
			return nil, ilpErr
		}
		res = fres
		usedFallback = true
	}
	sp = obs.StartSpan("phase/alloc/extract")
	out, err := il.extract(res)
	sp.End()
	if out != nil {
		out.Fallback = usedFallback
	}
	return out, err
}

// extract reads the solution back into a Result.
func (il *ilp) extract(res *mip.Result) (*Result, error) {
	g := il.g
	out := &Result{
		Opts:       g.opts,
		ModelStats: il.m.Stats(),
		MIP:        res,
		ObjConst:   il.objConst,
		bankOf:     make([]Bank, len(g.locTemp)),
		colors:     make([][NumBanks]int, len(il.colorVarOf)),
		graph:      g,
		model:      il.m,
	}
	for _, r := range il.roots {
		var chosen Bank = -1
		for _, b := range g.locAllow[r].banks() {
			if res.X[il.posCol[r][b]] > 0.5 {
				chosen = b
				break
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("core: web of %s has no selected bank", g.mp.TempName(g.locTemp[r]))
		}
		out.bankOf[r] = chosen
	}
	for v := range out.colors {
		out.colors[v] = noBanks
	}
	for _, cv := range il.colorVars {
		for r := 0; r < XRegs; r++ {
			if res.X[cv.col+r] > 0.5 {
				out.colors[cv.v][cv.bank] = r
			}
		}
	}
	// Moves: arcs whose endpoint webs landed in different banks.
	// Clone-group moves with identical endpoints at one point count
	// once (§10).
	seenClone := map[[4]int]bool{}
	for _, a := range g.arcs {
		from, to := g.find(a.from), g.find(a.to)
		if from == to {
			continue
		}
		b1, b2 := out.bankOf[from], out.bankOf[to]
		if b1 == b2 {
			continue
		}
		dup := false
		if set := g.cloneSet[a.v]; set >= 0 {
			key := [4]int{int(a.point), set, int(b1), int(b2)}
			dup = seenClone[key]
			seenClone[key] = true
		}
		rec := MoveRec{
			Point: int(a.point), Block: g.blockOf(a.point),
			V: a.v, From: b1, To: b2, Weight: g.weight[a.point], CloneDup: dup,
		}
		out.Moves = append(out.Moves, rec)
		if dup {
			continue // counted once in the statistics (§10)
		}
		switch {
		case b1 == C:
			out.Remats++
		case b2 == M:
			out.Spills++
		}
	}
	sort.Slice(out.Moves, func(i, j int) bool { return out.Moves[i].Point < out.Moves[j].Point })
	return out, nil
}

// BlockPoints returns the first and exit points of block b. Its
// points are entry through exit, one per instruction boundary (entry+i
// is before instruction i) plus, after a branch, the exit point past
// the comparison.
func (r *Result) BlockPoints(b mir.BlockID) (entry, exit int) {
	return int(r.graph.entry[b]), int(r.graph.exit(b))
}

// ColorOf returns v's register number in transfer bank b, or false
// when v has no register there.
func (r *Result) ColorOf(v mir.Temp, b Bank) (int, bool) {
	if int(v) >= len(r.colors) {
		return 0, false
	}
	c := r.colors[v][b]
	return c, c >= 0
}

// BankAt returns the bank of temp v immediately after any move at
// point p (the paper's After[p, v]).
func (r *Result) BankAt(v mir.Temp, p int) (Bank, bool) {
	l := r.graph.activeLocAt(v, pointID(p))
	if l < 0 {
		return 0, false
	}
	return r.bankOf[r.graph.find(l)], true
}

// BankBefore returns the bank of v just before any move at p.
func (r *Result) BankBefore(v mir.Temp, p int) (Bank, bool) {
	l := r.graph.beforeLocAt(v, pointID(p))
	if l < 0 {
		return 0, false
	}
	return r.bankOf[r.graph.find(l)], true
}

// NumMoves counts real register-register moves (excluding spills and
// rematerializations), the paper's Figure 7 "Moves" column.
func (r *Result) NumMoves() int {
	n := 0
	for _, m := range r.Moves {
		if m.From != C && m.To != M && m.From != M && !m.CloneDup {
			n++
		}
	}
	return n
}

// WeightedCost reproduces the objective value from the extracted
// solution, for verification.
func (r *Result) WeightedCost() float64 {
	total := 0.0
	for _, m := range r.Moves {
		if m.CloneDup {
			continue // the objective charges a clone group once (§10)
		}
		var c float64
		if m.From == C || m.To == C {
			c = constCost(r.graph.constVal[m.V], m.From, m.To)
		} else {
			c = MoveCost(m.From, m.To)
		}
		if c < 0 {
			continue
		}
		if r.Opts.BiasAB && m.From == B {
			c *= Bias
		}
		total += m.Weight * c
	}
	return total
}

// Graph statistics used by the Figure 6 reproduction.
type AggStats struct {
	DefL, DefLD, UseS, UseSD int // total temps participating, by class
}

// AggregateStats counts the temps participating in aggregate
// definitions and uses, as Figure 6 tabulates.
func (r *Result) AggregateStats() AggStats {
	return r.graph.aggregateStats()
}

func (g *graph) aggregateStats() AggStats {
	var s AggStats
	for _, a := range g.aggs {
		switch a.bank {
		case L:
			s.DefL += len(a.temps)
		case LD:
			s.DefLD += len(a.temps)
		case S:
			s.UseS += len(a.temps)
		case SD:
			s.UseSD += len(a.temps)
		}
	}
	return s
}

// SolveTimes returns the root relaxation and total integer times, as
// Figure 7 reports.
func (r *Result) SolveTimes() (root, total time.Duration) {
	return r.MIP.RootTime, r.MIP.Time
}
