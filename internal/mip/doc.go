// Package mip implements a 0-1 / integer branch-and-bound solver on top
// of the lp package — the stand-in for CPLEX (§5, §11 of the paper).
// The paper solves its models to within 0.01% of optimal; that is this
// solver's default relative gap as well.
//
// The search runs as a shared best-bound node pool drained by N worker
// goroutines (Options.Workers). Each worker owns a clone of the
// problem, replays a node's bound-change path onto it, and solves the
// node LP warm-started from the parent's basis; after branching it
// dives depth-first into the nearer child (keeping the basis in hand)
// while the sibling goes back to the pool. Presolve reductions run
// first (Options.Presolve, applied by the model layer); the root LP
// vertex is rounded for a first incumbent, and the tree starts from
// the root basis.
//
// # Usage
//
// State the relaxation as an lp.Problem and mark the integer columns:
//
//	p := lp.NewProblem()
//	x := p.AddCol(-3, 0, 1)                        // maximize 3x+2y as min -3x-2y
//	y := p.AddCol(-2, 0, 1)
//	p.AddRow(-lp.Inf, 1, []int{x, y}, []float64{1, 1})
//	res, err := mip.Solve(p, nil, &mip.Options{Workers: 4})
//	if err == nil && res.Status == mip.Optimal {
//		_ = res.X[x]    // 0/1 values; res.Nodes, res.LPIters: effort
//	}
//
// A nil integer slice makes every column integral. Options.Heuristic
// installs a caller-side completion heuristic (the allocator's color
// completion); the solver serializes heuristic calls, so the heuristic
// itself need not be goroutine-safe.
//
// The solver's obs counters (mip/nodes, mip/incumbents,
// mip/presolve/*, per-worker mip/workerN/*) are always on; a trace
// recorder additionally captures mip/root_lp, mip/root_heuristics,
// mip/search, and per-worker mip/worker spans — see DESIGN.md §8.
package mip
