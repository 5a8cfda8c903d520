package mip

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
)

var errUnbounded = errors.New("mip: relaxation is unbounded")

// bchange is one bound tightening on the path from the root to a node.
type bchange struct {
	col    int
	lo, hi float64
}

// node is an open subproblem in the shared pool: the parent LP bound,
// the full bound-change path from the root (replayed onto a worker's
// problem clone), and the parent basis for warm-starting the node LP.
type node struct {
	bound   float64
	changes []bchange
	basis   *lp.Basis
	seq     int64 // push order, for deterministic heap tie-breaking
	retries int   // panic-recovery requeues so far (DESIGN.md §10)
}

// nodeHeap is a best-bound (min-bound) priority queue.
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	nd := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return nd
}

// dropBasisAbove bounds pool memory: beyond this many open nodes,
// newly pushed nodes forget their warm basis (a few hundred KB each on
// the allocator models) and re-solve cold when popped.
const dropBasisAbove = 4096

// pool is the shared best-bound node store. pop blocks until a node is
// available and returns nil when the search is over: every node is
// processed and no worker can produce more, or a limit halted it.
type pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	nodes    nodeHeap
	inflight int
	nextSeq  int64
	halted   bool
}

func newPool() *pool {
	q := &pool{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *pool) push(nd *node) {
	q.mu.Lock()
	if q.halted {
		q.mu.Unlock()
		return
	}
	if len(q.nodes) >= dropBasisAbove {
		nd.basis = nil
	}
	nd.seq = q.nextSeq
	q.nextSeq++
	heap.Push(&q.nodes, nd)
	depth := len(q.nodes)
	q.mu.Unlock()
	gMIPPoolPeak.SetMax(int64(depth))
	q.cond.Signal()
}

func (q *pool) pop() *node {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.halted {
			return nil
		}
		if len(q.nodes) > 0 {
			q.inflight++
			return heap.Pop(&q.nodes).(*node)
		}
		if q.inflight == 0 {
			q.cond.Broadcast() // wake the other waiters so they exit too
			return nil
		}
		q.cond.Wait()
	}
}

// done marks a popped node (and its dive) fully processed.
func (q *pool) done() {
	q.mu.Lock()
	q.inflight--
	drained := q.inflight == 0 && len(q.nodes) == 0
	q.mu.Unlock()
	if drained {
		q.cond.Broadcast()
	}
}

func (q *pool) halt() {
	q.mu.Lock()
	q.halted = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// engine is the shared state of one branch-and-bound run.
type engine struct {
	p       *lp.Problem
	integer []bool
	intCols []int // integer column indices, precomputed once
	opts    *Options
	start   time.Time
	// deadline bounds every node LP (Options.Time or the context's
	// deadline, whichever is earlier).
	deadline time.Time
	pool     *pool
	ctx      context.Context

	// Failure-recovery state (DESIGN.md §10): serial flips when a node
	// panicked through its parallel retry, after which every worker but
	// worker 0 retires; lost counts subtrees abandoned to unrecoverable
	// failures — any lost subtree downgrades a would-be proof to
	// Degraded.
	serial atomic.Bool
	lost   atomic.Int64

	nodes   atomic.Int64
	lpIters atomic.Int64
	incBits atomic.Uint64 // float64 bits of the incumbent objective

	mu     sync.Mutex // guards incX and incumbent updates
	incX   []float64
	heurMu sync.Mutex // serializes the caller's Heuristic hook

	statMu  sync.Mutex
	halted  Status // NodeLimit or TimeLimit once a budget is hit
	hasHalt bool
	err     error
}

func newEngine(p *lp.Problem, integer []bool, opts *Options, start time.Time) *engine {
	e := &engine{p: p, integer: integer, opts: opts, start: start, pool: newPool(), ctx: context.Background()}
	for j, isInt := range integer {
		if isInt {
			e.intCols = append(e.intCols, j)
		}
	}
	e.incBits.Store(math.Float64bits(math.Inf(1)))
	return e
}

func (e *engine) incObj() float64 { return math.Float64frombits(e.incBits.Load()) }

// gapAbs is the absolute slack implied by the relative gap at the
// current incumbent (infinite while no incumbent exists, so nothing is
// pruned by it: bound >= Inf-Inf is a false NaN comparison).
func (e *engine) gapAbs(inc float64) float64 {
	return e.opts.Gap * math.Max(1, math.Abs(inc+e.opts.ObjOffset))
}

// offerIncumbent installs x (already feasible, already rounded) if it
// improves on the incumbent; it reports whether it did.
func (e *engine) offerIncumbent(obj float64, x []float64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if obj >= e.incObj() {
		return false
	}
	e.incX = x
	e.incBits.Store(math.Float64bits(obj))
	cMIPIncumb.Inc()
	return true
}

func (e *engine) setHalt(st Status) {
	e.statMu.Lock()
	if !e.hasHalt {
		e.halted, e.hasHalt = st, true
	}
	e.statMu.Unlock()
	e.pool.halt()
}

func (e *engine) fail(err error) {
	e.statMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.statMu.Unlock()
	e.pool.halt()
}

// run seeds the pool with the root node and drains it with
// opts.Workers workers, then fills in the result.
func (e *engine) run(rootSol *lp.Solution, res *Result) {
	// The root node re-enters the engine with the root basis in hand,
	// so its LP re-solve is a warm no-op rather than a repeat of the
	// root relaxation.
	e.pool.push(&node{bound: rootSol.Obj, basis: rootSol.Basis})
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(id)
		}(w)
	}
	wg.Wait()

	res.Nodes = int(e.nodes.Load())
	res.LPIters += int(e.lpIters.Load())
	e.mu.Lock()
	res.Obj = e.incObj()
	res.X = e.incX
	e.mu.Unlock()
	// A proof (Optimal or Infeasible) requires a fully drained tree: no
	// budget halt, no error, and no subtree lost to panics or numerics.
	// A drained-but-lossy search reports Degraded instead — its
	// incumbent is feasible but nothing is proven about the gap.
	proven := !e.hasHalt && e.err == nil && e.lost.Load() == 0
	switch {
	case math.IsInf(res.Obj, 1) && proven:
		res.Status = Infeasible
	case proven:
		res.Status = Optimal
	case e.hasHalt:
		res.Status = e.halted
	default:
		res.Status = Degraded
	}
}

// workerCtx is the per-worker mutable state: a problem clone, the root
// bounds of every column it may tighten, and scratch slices.
type workerCtx struct {
	prob    *lp.Problem
	rootLo  []float64
	rootHi  []float64
	applied []int // columns currently holding non-root bounds
	path    []bchange
	act     []float64 // feasibility-check scratch
	lpOpts  lp.Options

	// Telemetry tallies (plain ints — each workerCtx is owned by one
	// goroutine), flushed to mip/worker<N>/ counters at worker exit.
	statNodes      int64
	statIncumbents int64
}

// worker drains the pool until the search ends. Each worker runs under
// its own span track (tid id+1) so parallel dives are visible side by
// side in the trace viewer, and flushes its node/incumbent tallies
// to the per-worker counters on exit.
func (e *engine) worker(id int) {
	if obs.Enabled() {
		obs.NameThread(id+1, fmt.Sprintf("mip worker %d", id))
	}
	sp := obs.StartSpanTID("mip/worker", id+1)
	defer sp.End()
	w := &workerCtx{prob: e.p.Clone(), act: make([]float64, e.p.NumRows())}
	defer func() {
		prefix := fmt.Sprintf("mip/worker%d/", id)
		obs.NewCounter(prefix + "nodes").Add(w.statNodes)
		obs.NewCounter(prefix + "incumbents").Add(w.statIncumbents)
	}()
	n := e.p.NumCols()
	w.rootLo = make([]float64, n)
	w.rootHi = make([]float64, n)
	for j := 0; j < n; j++ {
		w.rootLo[j], w.rootHi[j] = e.p.Bounds(j)
	}
	w.lpOpts.Deadline = e.deadline
	for {
		nd := e.pool.pop()
		if nd == nil {
			return
		}
		if e.serial.Load() && id != 0 {
			// The pool degraded to serial after repeated panics: hand
			// the node back and retire, leaving worker 0 to finish the
			// tree alone.
			e.pool.push(nd)
			e.pool.done()
			return
		}
		e.safeDive(w, nd)
		e.pool.done()
	}
}

// safeDive runs dive under panic recovery. A panicking node is
// re-queued cold (no warm basis — the panic may have been basis
// related) and retried on a rebuilt clone; a second panic on the same
// node degrades the pool to serial and grants one last retry there; a
// third abandons the subtree and records it in e.lost, so the final
// status degrades rather than claiming a proof over an unexplored
// subtree.
func (e *engine) safeDive(w *workerCtx, nd *node) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		cMIPRecovered.Inc()
		// The clone may have been mid-mutation when the panic unwound;
		// rebuild it from the engine's pristine problem.
		w.prob = e.p.Clone()
		w.applied = w.applied[:0]
		switch nd.retries {
		case 0:
			nd.retries, nd.basis = 1, nil
			e.pool.push(nd)
		case 1:
			e.serial.Store(true)
			nd.retries, nd.basis = 2, nil
			e.pool.push(nd)
		default:
			e.lost.Add(1)
		}
	}()
	e.dive(w, nd)
}

// dive processes one pooled node and then follows the nearer branch
// child depth-first (warm basis in hand, bound change applied
// incrementally), pushing the sibling back into the pool each time.
// Depth-first diving keeps the incumbent-finding behaviour of the
// original serial search; the pool supplies best-bound load balancing
// across workers.
func (e *engine) dive(w *workerCtx, nd *node) {
	if e.ctx.Err() != nil {
		e.setHalt(Cancelled)
		return
	}
	if fpWorkerPanic.Fire() {
		panic("fault: injected worker panic")
	}
	// Reset the clone to root bounds, then replay the node's path.
	for _, col := range w.applied {
		w.prob.SetBounds(col, w.rootLo[col], w.rootHi[col])
	}
	w.applied = w.applied[:0]
	w.path = append(w.path[:0], nd.changes...)
	for _, ch := range w.path {
		w.prob.SetBounds(ch.col, ch.lo, ch.hi)
		w.applied = append(w.applied, ch.col)
	}
	warm := nd.basis
	bound := nd.bound

	for {
		// Bound-based pruning against the current incumbent.
		inc := e.incObj()
		if bound >= inc-e.gapAbs(inc) {
			return
		}
		seq := e.nodes.Add(1)
		if seq > int64(e.opts.MaxNodes) {
			e.nodes.Add(-1)
			e.setHalt(NodeLimit)
			return
		}
		w.statNodes++
		// The deadline (and context poll) cost a syscall, so consult
		// them every 64 nodes rather than per node.
		if seq&63 == 0 {
			if time.Since(e.start) > e.opts.Time {
				e.setHalt(TimeLimit)
				return
			}
			if e.ctx.Err() != nil {
				e.setHalt(Cancelled)
				return
			}
		}
		// A node re-solve only changed branching bounds since the warm
		// basis was snapshot, so it is dual feasible: the default method
		// iterates on the dual instead of re-entering primal phase 1.
		w.lpOpts.WarmBasis = warm
		sol, err := w.prob.Solve(&w.lpOpts)
		if err != nil {
			var se *lp.StabilityError
			if errors.As(err, &se) {
				// The LP layer already retried from a cold basis; this
				// subproblem is numerically hopeless. Abandon the subtree
				// (recorded — it blocks any optimality claim) instead of
				// poisoning the whole solve.
				e.lost.Add(1)
				return
			}
			e.fail(err)
			return
		}
		e.lpIters.Add(int64(sol.Iters))
		if sol.Status == lp.IterLimit {
			// The node LP ran out of budget: this subtree is unexplored,
			// not pruned. Halt on the budget when it is the cause;
			// otherwise record a lost subtree so no proof is claimed.
			switch {
			case time.Since(e.start) > e.opts.Time:
				e.setHalt(TimeLimit)
			case e.ctx.Err() != nil:
				e.setHalt(Cancelled)
			default:
				e.lost.Add(1)
			}
			return
		}
		if sol.Status != lp.Optimal {
			return // infeasible subtree
		}
		lpBound := sol.Obj
		inc = e.incObj()
		if lpBound >= inc-e.gapAbs(inc) {
			return
		}
		// Find the most fractional integer column, respecting branching
		// priorities (highest priority class first).
		branchCol, frac, branchPrio := -1, 0.0, math.MinInt
		for _, j := range e.intCols {
			f := math.Abs(sol.X[j] - math.Round(sol.X[j]))
			if f <= 1e-6 {
				continue
			}
			pr := 0
			if e.opts.Priority != nil {
				pr = e.opts.Priority[j]
			}
			if pr > branchPrio || (pr == branchPrio && f > frac) {
				branchCol, frac, branchPrio = j, f, pr
			}
		}
		if branchCol >= 0 && e.opts.Heuristic != nil {
			if e.tryHeuristic(w, sol.X) {
				w.statIncumbents++
				// The LP bound may still be below the new incumbent;
				// keep branching unless the gap is closed.
				inc = e.incObj()
				if lpBound >= inc-e.gapAbs(inc) {
					return
				}
			}
		}
		if branchCol < 0 {
			// Integral: new incumbent.
			x := append([]float64(nil), sol.X...)
			for _, j := range e.intCols {
				x[j] = math.Round(x[j])
			}
			if e.offerIncumbent(sol.Obj, x) {
				w.statIncumbents++
			}
			return
		}
		x := sol.X[branchCol]
		lo, hi := w.prob.Bounds(branchCol)
		down := bchange{col: branchCol, lo: lo, hi: math.Floor(x)}
		up := bchange{col: branchCol, lo: math.Ceil(x), hi: hi}
		// Dive into the nearer side; the sibling goes to the pool with
		// its own copy of the path and the shared parent basis.
		near, far := down, up
		if x-math.Floor(x) >= 0.5 {
			near, far = up, down
		}
		sib := make([]bchange, len(w.path)+1)
		copy(sib, w.path)
		sib[len(w.path)] = far
		e.pool.push(&node{bound: lpBound, changes: sib, basis: sol.Basis})
		w.path = append(w.path, near)
		w.prob.SetBounds(near.col, near.lo, near.hi)
		w.applied = append(w.applied, near.col)
		warm = sol.Basis
		bound = lpBound
	}
}

// tryHeuristic runs the caller's completion hook (serialized — hooks
// are not required to be goroutine-safe), verifies the candidate
// against the worker's node-bounded problem, and offers it as an
// incumbent. It reports whether the incumbent improved.
func (e *engine) tryHeuristic(w *workerCtx, xLP []float64) bool {
	cMIPHeurCalls.Inc()
	e.heurMu.Lock()
	cand, ok := callHeuristic(e.opts.Heuristic, xLP)
	e.heurMu.Unlock()
	if !ok || !feasible(w.prob, e.integer, cand, 1e-6, w.act) {
		return false
	}
	return e.offerIncumbent(objOf(w.prob, cand), append([]float64(nil), cand...))
}
