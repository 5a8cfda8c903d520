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
	cMIPCutsRoot   = obs.NewCounter("mip/cuts_root")
	cMIPCutsTree   = obs.NewCounter("mip/cuts_tree")
	cMIPIncumb     = obs.NewCounter("mip/incumbents")
	cMIPHeurCalls  = obs.NewCounter("mip/heuristic_calls")
	cMIPRecovered  = obs.NewCounter("mip/recovered_panics")
	cMIPHeurPanics = obs.NewCounter("mip/heuristic_panics")
	gMIPPoolPeak   = obs.NewGauge("mip/pool_peak")
)

// Warm-start reuse counters (DESIGN.md §12): the compile cache's
// near-miss path hands a previous solve's optimum back in through
// Options.Seed and, when the edit provably cannot beat it, through
// Options.LowerBound; these record how often the seed survived
// verification and how often the bound closed the proof at the root.
var (
	cMIPSeedUsed    = obs.NewCounter("mip/seed_incumbents")
	cMIPSeedDrops   = obs.NewCounter("mip/seed_drops")
	cMIPBoundProofs = obs.NewCounter("mip/bound_proofs")
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
	LP       *lp.Options   // per-node LP options
	Workers  int           // parallel tree-search workers; default GOMAXPROCS

	// CutRounds controls the root-node cutting-plane loop: 0 runs the
	// automatic default (up to 30 rounds of lifted cover + clique
	// separation, stopping when the relaxation stops improving), a
	// negative value disables cutting planes entirely (reproducing the
	// plain warm-started branch and bound), and a positive value caps
	// the number of root rounds.
	CutRounds int

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

	// Ctx, when set, cancels the solve: the root cut loop, the root
	// heuristics, and the tree search all poll it, and a cancelled
	// solve returns Status Cancelled together with the best incumbent
	// found so far (nil X when none exists). Nil means no cancellation
	// (context.Background()).
	Ctx context.Context

	// Seed, when non-nil, proposes a starting incumbent in the solved
	// problem's coordinates — the compile cache's near-miss path seeds
	// the search with the cached solution of a structurally identical
	// model. The solver verifies the point against bounds, integrality,
	// and every row before installing it; a seed that fails
	// verification is dropped (mip/seed_drops) rather than trusted, so
	// a stale or corrupt seed can cost time but never correctness.
	Seed []float64

	// LowerBound, when non-nil, is a caller-PROVEN global lower bound
	// on the optimal objective. The canonical source is the compile
	// cache: when a request only tightens bounds of a cached model and
	// keeps its objective, the cached optimum bounds the edited problem
	// from below (minimizing over a subset cannot do better). If an
	// incumbent meets the bound within Gap before the tree opens, the
	// solve finishes Optimal right there (mip/bound_proofs) — the
	// optimality proof transfers instead of being re-searched. A wrong
	// bound could only mislabel a solve as proven, never change the
	// incumbent, and the cache's subset check is what keeps it sound.
	LowerBound *float64

	// seedX/seedObj install a known-feasible starting incumbent before
	// the search (used by the local-branching sub-solves, which restrict
	// the neighborhood of a point they already hold).
	seedX   []float64
	seedObj float64
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
	RootObj  float64 // plain root relaxation objective (before cuts)
	RootTime time.Duration
	Time     time.Duration
	Nodes    int
	LPIters  int
	Workers  int // tree-search workers used

	// RootCutObj is the root bound after the cutting-plane loop; it
	// equals RootObj when cuts are disabled or none separated.
	RootCutObj float64
	// Cuts counts the cutting planes generated (root loop + tree).
	Cuts int
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
	// becomes a hard deadline threaded into every LP solve (root, cut
	// loop, heuristics, and tree nodes all honor it), and the caller's
	// context is polled at node granularity by the tree search.
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := start.Add(o.Time)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	o.LP = withDeadline(o.LP, deadline)
	if ctx.Err() != nil {
		res.Status = Cancelled
		res.Time = time.Since(start)
		return res, nil
	}

	// Cache-provided warm-start material (DESIGN.md §12). The seed
	// incumbent is verified here — never trusted — so a stale cache
	// entry degrades to a cold search instead of a wrong answer.
	if o.Seed != nil {
		if x, obj, ok := checkSeed(p, integer, o.Seed); ok {
			o.seedX, o.seedObj = x, obj
			cMIPSeedUsed.Inc()
		} else {
			cMIPSeedDrops.Inc()
		}
		o.Seed = nil
	}

	rootStart := time.Now()
	rootSp := obs.StartSpan("mip/root_lp")
	rootSol, err := p.Solve(o.LP)
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
	res.RootCutObj = rootSol.Obj

	// Root-node cutting-plane loop: separate lifted cover and clique
	// cuts against the fractional point, append them to a clone of the
	// problem, and re-solve warm-started from the previous basis until
	// the relaxation stops improving. The clone keeps the caller's
	// problem untouched; the pool carries the same cuts to the workers.
	work := p
	var sep *separator
	var cpool *cutPool
	cutBase := 0
	if o.CutRounds >= 0 {
		cutSp := obs.StartSpan("mip/cut_loop")
		sep = newSeparator(p, integer)
		cpool = newCutPool()
		rounds := o.CutRounds
		if rounds == 0 {
			rounds = 10
		}
		sol := rootSol
		stall := 0
		for round := 0; round < rounds; round++ {
			if time.Since(start) > o.Time || ctx.Err() != nil {
				break
			}
			cuts := sep.separate(sol.X, 48)
			if o.Heuristic == nil {
				// Tableau cuts only when no completion heuristic is
				// registered: a caller's heuristic rounds the node LP
				// vertex, and the dense GMI rows smear its fractionality
				// across columns the heuristic cannot read, degrading the
				// very incumbents that close heuristic-driven trees in tens
				// of nodes. The sparse combinatorial families above stay on
				// for everyone.
				cuts = append(cuts, gmiCuts(work, sol.Basis, integer, 16)...)
			}
			if len(cuts) == 0 {
				break
			}
			before := cpool.len()
			if cpool.add(cuts) == 0 {
				break
			}
			if work == p {
				work = p.Clone()
			}
			cpool.apply(work, before)
			warm, err := work.Solve(warmOpts(o.LP, sol.Basis))
			if err != nil {
				// A cut LP that fails (numerical trouble in the appended
				// rows) does not poison the solve: the pre-cut bound in
				// hand is still valid, and the appended rows stay — every
				// cut holds at every integer point, and the workers'
				// warm bases are row-prefix compatible.
				break
			}
			res.LPIters += warm.Iters
			if warm.Status == lp.Infeasible {
				// Every cut is valid for every integer point, so a cut
				// LP with no solution proves the MIP infeasible.
				res.Status = Infeasible
				res.Cuts = cpool.len()
				res.Time = time.Since(start)
				cutSp.End()
				return res, nil
			}
			if warm.Status != lp.Optimal {
				break // keep the bound already in hand
			}
			improved := warm.Obj - sol.Obj
			sol = warm
			if improved <= 1e-7*math.Max(1, math.Abs(sol.Obj)) {
				stall++
				if stall >= 8 {
					break
				}
			} else {
				stall = 0
			}
		}
		// Shed the cuts that ended up slack at the final root vertex
		// before the tree starts; the vertex stays optimal without them
		// and the workers' node LPs shrink accordingly. The trimmed LP
		// is re-solved cold (the incumbent basis indexes dropped rows).
		if tight := cpool.tight(sol.X, 1e-6); len(tight) < cpool.len() {
			tp := newCutPool()
			tp.add(tight)
			tw := p
			if tp.len() > 0 {
				tw = p.Clone()
				tp.apply(tw, 0)
			}
			if ts, err := tw.Solve(o.LP); err == nil && ts.Status == lp.Optimal {
				res.LPIters += ts.Iters
				cpool, work, sol = tp, tw, ts
			}
		}
		rootSol = sol
		res.RootCutObj = sol.Obj
		cutBase = cpool.len()
		cutSp.End()
	}

	e := newEngine(work, integer, &o, start)
	e.ctx = ctx
	e.sep = sep
	e.cuts = cpool
	e.cutBase = cutBase
	e.trueRows = p.NumRows()
	if sep != nil {
		// The implicit objective cut rides with the explicit families:
		// with cuts disabled the engine must replay the plain search.
		e.objStep = objGranularity(p, integer)
	}
	// Root primal heuristics. The basic rounding runs always (it is the
	// PR 1 behavior); the diving and local-branching stages ride with
	// the cut loop, because an early near-optimal incumbent prunes the
	// tree harder than any cut row. All candidates are verified against
	// the original rows — the incumbent need only satisfy true
	// constraints.
	heurSp := obs.StartSpan("mip/root_heuristics")
	bestObj := math.Inf(1)
	var bestX []float64
	if o.seedX != nil {
		bestX, bestObj = o.seedX, o.seedObj
		e.offerIncumbent(bestObj, append([]float64(nil), bestX...))
	}
	if x, obj, ok := roundFeasible(p, integer, rootSol.X); ok && obj < bestObj {
		bestX, bestObj = x, obj
	}
	if sep != nil && o.Heuristic == nil && ctx.Err() == nil && countBinaries(p, integer) <= maxHeurBinaries {
		// Callers with a domain completion heuristic already get
		// incumbents from structure; and on models with thousands of
		// binaries a fixed-radius Hamming ball is a vanishing fraction
		// of the cube while its sub-MIP LPs cost nearly as much as the
		// real node LPs — so the generic root heuristics stand down.
		if x, obj, iters, ok := rootDive(work, p, integer, rootSol, o.LP); ok {
			res.LPIters += iters
			if obj < bestObj {
				bestX, bestObj = x, obj
			}
		}
		// Local branching around the best point, recentering while it
		// keeps improving.
		for round := 0; round < 3 && bestX != nil; round++ {
			remain := o.Time - time.Since(start)
			if remain <= 0 || ctx.Err() != nil {
				break
			}
			x, obj, iters, ok := localBranch(ctx, p, integer, bestX, bestObj, o.LP, remain/8)
			res.LPIters += iters
			if !ok {
				break
			}
			bestX, bestObj = x, obj
		}
	}
	if bestX != nil {
		e.offerIncumbent(bestObj, bestX)
	}
	heurSp.End()
	// A caller-proven global lower bound can finish the proof before
	// the tree opens: when the best incumbent already meets it within
	// the optimality gap, there is nothing left to search. The cache's
	// near-miss path lands here whenever a region-tightening edit
	// leaves the cached optimum feasible.
	if o.LowerBound != nil {
		if inc := e.incObj(); !math.IsInf(inc, 1) && inc-*o.LowerBound <= e.gapAbs(inc) {
			e.mu.Lock()
			res.Obj, res.X = inc, e.incX
			e.mu.Unlock()
			res.Status = Optimal
			if cpool != nil {
				res.Cuts = cpool.len()
			}
			res.Time = time.Since(start)
			cMIPSolves.Inc()
			cMIPBoundProofs.Inc()
			return res, nil
		}
	}
	searchSp := obs.StartSpan("mip/search")
	e.run(rootSol, res)
	searchSp.End()
	if cpool != nil {
		res.Cuts = cpool.len()
	}
	res.Time = time.Since(start)
	cMIPSolves.Inc()
	cMIPNodes.Add(int64(res.Nodes))
	cMIPCutsRoot.Add(int64(cutBase))
	if cpool != nil {
		cMIPCutsTree.Add(int64(cpool.len() - cutBase))
	}
	return res, e.err
}

// maxHeurBinaries bounds the model size the generic root heuristics
// (rounding dive, local branching) are worth their LP cost on.
const maxHeurBinaries = 256

// countBinaries counts integer columns with 0/1 bounds.
func countBinaries(p *lp.Problem, integer []bool) int {
	n := 0
	for j, isInt := range integer {
		if !isInt {
			continue
		}
		if lo, hi := p.Bounds(j); lo == 0 && hi == 1 {
			n++
		}
	}
	return n
}

// withDeadline copies the caller's LP options with the solve's hard
// wall-clock deadline installed (keeping an earlier caller deadline if
// one is already set). Every LP the solve runs — root, cut loop,
// heuristic sub-solves, tree nodes — goes through the result, so no
// single LP can blow past the MIP budget.
func withDeadline(base *lp.Options, dl time.Time) *lp.Options {
	var o lp.Options
	if base != nil {
		o = *base
	}
	if o.Deadline.IsZero() || dl.Before(o.Deadline) {
		o.Deadline = dl
	}
	return &o
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
		res.RootCutObj = rootSol.Obj
		if x, obj, ok := roundFeasible(p, integer, rootSol.X); ok && obj < res.Obj {
			res.X, res.Obj = x, obj
		}
		if o.Heuristic != nil {
			if cand, ok := callHeuristic(o.Heuristic, rootSol.X); ok && Feasible(p, cand, 1e-6) {
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

// checkSeed verifies a caller-proposed incumbent: integral where
// required, inside bounds, and feasible for every row. It returns a
// defensive copy with the integer components snapped exactly onto the
// lattice, plus the objective value.
func checkSeed(p *lp.Problem, integer []bool, seed []float64) ([]float64, float64, bool) {
	if len(seed) != p.NumCols() {
		return nil, 0, false
	}
	x := append([]float64(nil), seed...)
	for j := range x {
		if !integer[j] {
			continue
		}
		r := math.Round(x[j])
		if math.Abs(x[j]-r) > 1e-6 {
			return nil, 0, false
		}
		x[j] = r
	}
	for j := range x {
		lo, hi := p.Bounds(j)
		if x[j] < lo-1e-9 || x[j] > hi+1e-9 {
			return nil, 0, false
		}
	}
	if !Feasible(p, x, 1e-6) {
		return nil, 0, false
	}
	return x, objOf(p, x), true
}

// objOf evaluates p's objective at x.
func objOf(p *lp.Problem, x []float64) float64 {
	obj := 0.0
	for j := range x {
		obj += p.Obj(j) * x[j]
	}
	return obj
}

// warmOpts copies the caller's LP options with a warm basis installed
// and — unless the caller pinned a method — the dual simplex selected:
// every warm re-solve in this package follows a bound change or an
// appended cut row, which leaves the incumbent basis dual feasible.
func warmOpts(base *lp.Options, b *lp.Basis) *lp.Options {
	var o lp.Options
	if base != nil {
		o = *base
	}
	o.WarmBasis = b
	if o.Method == lp.MethodAuto {
		o.Method = lp.MethodDual
	}
	return &o
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
	if !Feasible(p, cand, 1e-6) {
		return nil, 0, false
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.Obj(j) * cand[j]
	}
	return cand, obj, true
}

// Feasible checks a point against all rows and bounds of p.
func Feasible(p *lp.Problem, x []float64, tol float64) bool {
	return feasibleScratch(p, x, tol, nil)
}

// feasibleScratch is Feasible with a caller-owned row-activity scratch
// slice, so hot callers (the search workers) do not allocate per check.
func feasibleScratch(p *lp.Problem, x []float64, tol float64, act []float64) bool {
	return feasibleRows(p, x, tol, act, p.NumRows())
}

// feasibleRows is feasibleScratch restricted to the first rows
// constraint rows. Workers verify heuristic candidates this way,
// against the true model rows only: appended cut rows hold at every
// integer-feasible point by construction, and the 1e-7-scale slack a
// Gomory row can show at such a point must not veto an incumbent.
func feasibleRows(p *lp.Problem, x []float64, tol float64, act []float64, rows int) bool {
	n := p.NumCols()
	m := p.NumRows() // activity scratch spans every row; only rows are checked
	if cap(act) < m {
		act = make([]float64, m)
	} else {
		act = act[:m]
		for i := range act {
			act[i] = 0
		}
	}
	for j := 0; j < n; j++ {
		lo, hi := p.Bounds(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			return false
		}
		for _, nz := range p.Col(j) {
			act[nz.Row] += nz.Val * x[j]
		}
	}
	for r := 0; r < rows; r++ {
		lo, hi := p.RowBounds(r)
		if act[r] < lo-tol || act[r] > hi+tol {
			return false
		}
	}
	return true
}
