package mip

import (
	"context"
	"math"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/obs"
)

// Search-effort counters and the open-pool high-water mark (DESIGN.md
// §8). Totals are flushed once per Solve; per-worker breakdowns live
// under mip/worker<N>/ (see search.go). recovered_panics counts worker
// panics caught and converted into node retries (DESIGN.md §10);
// heuristic_panics counts caller completion hooks that panicked and
// were treated as a miss.
var (
	cMIPSolves     = obs.NewCounter("mip/solves")
	cMIPNodes      = obs.NewCounter("mip/nodes")
	cMIPIncumb     = obs.NewCounter("mip/incumbents")
	cMIPHeurCalls  = obs.NewCounter("mip/heuristic_calls")
	cMIPRecovered  = obs.NewCounter("mip/recovered_panics")
	cMIPHeurPanics = obs.NewCounter("mip/heuristic_panics")
	gMIPPoolPeak   = obs.NewGauge("mip/pool_peak")
)

// Fault-injection points (internal/fault): worker_panic panics inside
// a tree-search worker's dive, heuristic_err panics inside the
// protected heuristic call. Both exercise the recovery paths that
// production code must survive.
var (
	fpWorkerPanic = fault.NewPoint("mip/worker_panic")
	fpHeurErr     = fault.NewPoint("mip/heuristic_err")
)

// Options tunes the search. Out-of-range values (negative Workers or
// MaxNodes, non-positive Gap or Time) fall back to the defaults rather
// than producing undefined behavior.
type Options struct {
	Gap      float64       // relative optimality gap; default 1e-4 (0.01%)
	MaxNodes int           // node budget; default 200000
	Time     time.Duration // wall-clock budget; default 5 minutes
	Workers  int           // parallel tree-search workers; default GOMAXPROCS

	// Presolve is interpreted by the modeling layer (model.Solve runs
	// its presolve pass before exporting the problem to this solver
	// unless Presolve is negative). mip.Solve itself ignores the field;
	// it lives here so one options value configures the whole stack.
	Presolve int

	// ObjOffset is a constant added to the objective for gap purposes
	// only: callers that moved fixed costs out of the LP pass it so the
	// relative gap is measured against the true total.
	ObjOffset float64

	// Priority orders branching: among fractional integer columns,
	// those with the highest priority value are branched first. Nil
	// means uniform.
	Priority []int

	// Heuristic, when set, is called at every node whose LP solution
	// still has fractional integer columns. It may return a feasible
	// completion of x (a full assignment); the solver verifies
	// feasibility and uses it as an incumbent. This hook lets domain
	// code finish symmetric subproblems (e.g. register colors)
	// combinatorially. Calls are serialized by the solver, so the hook
	// need not be goroutine-safe even with Workers > 1.
	Heuristic func(x []float64) ([]float64, bool)

	// Ctx, when set, cancels the solve: the root and the tree search
	// both poll it, and a cancelled solve returns Status Cancelled
	// together with the best incumbent found so far (nil X when none
	// exists). Nil means no cancellation (context.Background()).
	Ctx context.Context
}

func (o *Options) fill() {
	if o.Gap <= 0 {
		o.Gap = 1e-4
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	if o.Time <= 0 {
		o.Time = 5 * time.Minute
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Status of the MIP solve.
type Status int

// Statuses. Every halted status (NodeLimit, TimeLimit, Cancelled,
// Degraded) guarantees the best incumbent found is in Result.X when
// one exists; only its optimality proof is missing.
const (
	Optimal Status = iota // incumbent proven within gap
	Infeasible
	NodeLimit // best incumbent returned, gap not proven
	TimeLimit
	Cancelled // Options.Ctx cancelled; best incumbent returned
	// Degraded means the search drained but lost subtrees to
	// unrecoverable failures (a node LP with persistent numerical
	// trouble, or a node that panicked through all its retries), so
	// neither optimality nor infeasibility is proven.
	Degraded
)

// String returns the status's lower-case name, as printed by novac
// and reported in novad responses.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	case TimeLimit:
		return "time-limit"
	case Cancelled:
		return "cancelled"
	case Degraded:
		return "degraded"
	}
	return "unknown"
}

// Result reports the solve outcome together with the statistics that
// Figure 7 of the paper tabulates (root relaxation time, total integer
// solve time).
type Result struct {
	Status   Status
	X        []float64
	Obj      float64
	RootObj  float64 // root relaxation objective
	RootTime time.Duration
	Time     time.Duration
	Nodes    int
	LPIters  int
	Workers  int // tree-search workers used
}

// Solve minimizes p with the integrality constraint applied to the
// columns where integer[j] is true (pass nil for all-integer). The
// problem itself is never mutated: the root relaxation reads it and
// every worker searches on its own clone.
func Solve(p *lp.Problem, integer []bool, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	o := *opts
	o.fill()
	n := p.NumCols()
	if integer == nil {
		integer = make([]bool, n)
		for j := range integer {
			integer[j] = true
		}
	}
	start := time.Now()
	res := &Result{Obj: math.Inf(1), Workers: o.Workers}

	// Failure-policy plumbing (DESIGN.md §10): the wall-clock budget
	// becomes a hard deadline threaded into every LP solve (root and
	// tree nodes both honor it), and the caller's context is polled at
	// node granularity by the tree search.
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := start.Add(o.Time)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	if ctx.Err() != nil {
		res.Status = Cancelled
		res.Time = time.Since(start)
		return res, nil
	}

	rootStart := time.Now()
	rootSp := obs.StartSpan("mip/root_lp")
	rootSol, err := p.Solve(&lp.Options{Deadline: deadline})
	rootSp.End()
	res.RootTime = time.Since(rootStart)
	if err != nil {
		return nil, err
	}
	res.LPIters += rootSol.Iters
	switch rootSol.Status {
	case lp.Infeasible:
		res.Status = Infeasible
		res.Time = time.Since(start)
		return res, nil
	case lp.Unbounded:
		return nil, errUnbounded
	case lp.IterLimit:
		// The root LP ran out of budget. Salvage an incumbent from the
		// partial point when one exists instead of erroring out — the
		// contract is that budget-hit solves report a status, never an
		// error.
		return salvageRoot(p, integer, &o, rootSol, res, start)
	}
	res.RootObj = rootSol.Obj

	e := newEngine(p, integer, &o, start)
	e.ctx = ctx
	e.deadline = deadline
	// Root incumbent: the rounded root vertex.
	heurSp := obs.StartSpan("mip/root_heuristics")
	if x, obj, ok := roundFeasible(p, integer, rootSol.X); ok {
		e.offerIncumbent(obj, x)
	}
	heurSp.End()
	searchSp := obs.StartSpan("mip/search")
	e.run(rootSol, res)
	searchSp.End()
	res.Time = time.Since(start)
	cMIPSolves.Inc()
	cMIPNodes.Add(int64(res.Nodes))
	return res, e.err
}

// salvageRoot turns a root LP that hit its iteration or wall-clock
// limit into a budget-style result instead of an error: when the
// phase-2 point is available it is rounded — and offered to the
// caller's completion heuristic — in search of an incumbent, and the
// best one found rides out under TimeLimit/NodeLimit. A phase-1 limit
// carries no point, so the result reports the halt with nil X and the
// caller's fallback path takes over.
func salvageRoot(p *lp.Problem, integer []bool, o *Options, rootSol *lp.Solution, res *Result, start time.Time) (*Result, error) {
	res.Status = NodeLimit
	if time.Since(start) > o.Time {
		res.Status = TimeLimit
	}
	if rootSol.X != nil {
		res.RootObj = rootSol.Obj
		if x, obj, ok := roundFeasible(p, integer, rootSol.X); ok && obj < res.Obj {
			res.X, res.Obj = x, obj
		}
		if o.Heuristic != nil {
			if cand, ok := callHeuristic(o.Heuristic, rootSol.X); ok && feasible(p, integer, cand, 1e-6, nil) {
				if obj := objOf(p, cand); obj < res.Obj {
					res.X, res.Obj = append([]float64(nil), cand...), obj
				}
			}
		}
	}
	res.Time = time.Since(start)
	cMIPSolves.Inc()
	return res, nil
}

// callHeuristic invokes a caller completion hook with panic
// protection: a hook that panics (or is forced to by the
// mip/heuristic_err fault point) is treated as a miss and tallied
// under mip/heuristic_panics instead of crashing the search.
func callHeuristic(h func(x []float64) ([]float64, bool), x []float64) (cand []float64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			cMIPHeurPanics.Inc()
			cand, ok = nil, false
		}
	}()
	if fpHeurErr.Fire() {
		panic("fault: injected heuristic error")
	}
	return h(x)
}

// objOf evaluates p's objective at x.
func objOf(p *lp.Problem, x []float64) float64 {
	obj := 0.0
	for j := range x {
		obj += p.Obj(j) * x[j]
	}
	return obj
}

// roundFeasible rounds the integer components of x and checks the
// result against the rows; it returns the candidate when feasible.
func roundFeasible(p *lp.Problem, integer []bool, x []float64) ([]float64, float64, bool) {
	n := p.NumCols()
	cand := append([]float64(nil), x...)
	for j := 0; j < n; j++ {
		if integer[j] {
			cand[j] = math.Round(cand[j])
			lo, hi := p.Bounds(j)
			if cand[j] < lo || cand[j] > hi {
				return nil, 0, false
			}
		}
	}
	if !feasible(p, integer, cand, 1e-6, nil) {
		return nil, 0, false
	}
	return cand, objOf(p, cand), true
}

// feasible reports whether x is a feasible point of p: within every
// column bound and row range, and integral on every integer column,
// all within tol. Every comparison is written so that NaN fails it —
// this is the gate every incumbent candidate passes. act is an
// optional row-activity scratch slice, so hot callers (the search
// workers) do not allocate per check.
func feasible(p *lp.Problem, integer []bool, x []float64, tol float64, act []float64) bool {
	n := p.NumCols()
	m := p.NumRows()
	if cap(act) < m {
		act = make([]float64, m)
	} else {
		act = act[:m]
		for i := range act {
			act[i] = 0
		}
	}
	for j := 0; j < n; j++ {
		v := x[j]
		if integer[j] && !(math.Abs(v-math.Round(v)) <= tol) {
			return false
		}
		lo, hi := p.Bounds(j)
		if !(v >= lo-tol && v <= hi+tol) {
			return false
		}
		for _, nz := range p.Col(j) {
			act[nz.Row] += nz.Val * v
		}
	}
	for r := 0; r < m; r++ {
		lo, hi := p.RowBounds(r)
		if !(act[r] >= lo-tol && act[r] <= hi+tol) {
			return false
		}
	}
	return true
}
