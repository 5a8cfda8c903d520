// Package lp implements a linear-programming solver: a bounded-variable
// simplex over a frozen sparse matrix with a sparse LU basis
// factorization (threshold-Markowitz pivoting, product-form column
// etas between refactorizations that a work clock schedules,
// hypersparse triangular solves), pivot rows priced from the matrix's
// rows, devex pricing on the primal side, a Bland fallback against
// cycling, and a
// bound-flipping dual simplex for cold solves whose crash basis is
// dual feasible (on perturbed costs) and for warm-started re-solves
// after bound changes. It is the substrate under the branch-and-bound
// MIP solver that stands in for CPLEX in this reproduction.
//
// Problems are stated as
//
//	minimize    c'x
//	subject to  rowLo <= Ax <= rowHi,   lo <= x <= hi
//
// Internally every row gets a logical (slack) variable s with bounds
// [rowLo, rowHi] and the equation a'x - s = 0, giving the computational
// form  [A | -I] (x, s) = 0  whose slack basis is always nonsingular.
//
// # Usage
//
// Add the columns, then the rows, then solve. The first read of the
// matrix (Solve, Clone, Col, Row) freezes it: clones share it, and
// AddCol and AddRow panic from then on.
//
//	p := lp.NewProblem()
//	x := p.AddCol(1.0, 0, lp.Inf)                   // objective coeff, bounds
//	y := p.AddCol(2.0, 0, lp.Inf)
//	p.AddRow(1, 3, []int{x, y}, []float64{1, 1})    // 1 <= x + y <= 3
//	sol, err := p.Solve(nil)
//	if err == nil && sol.Status == lp.Optimal {
//		_ = sol.X[x] + sol.X[y]                 // primal values
//	}
//
// Solution.Basis snapshots the final basis — variable states, basis
// row order, and the LU factorization with its pending update etas.
// Passing it back through Options.WarmBasis after bound changes
// warm-starts the re-solve: the factorization is adopted without
// refactorizing when it was computed on the same frozen matrix (the
// Problem's or a clone's), and Options.Method MethodAuto routes the
// re-solve through the dual simplex, which restores optimality in a
// handful of pivots instead of a full solve.
// A cold solve whose crash basis is dual feasible (every column at
// the bound its cost prefers, as in the register allocator's models)
// runs the same dual on costs perturbed by about feasTol, then drops the
// perturbation and lets primal phase 2 reprice from the true costs;
// it needs no phase 1 (DESIGN.md §11). Options.Method MethodPrimal
// pins the two-phase primal for experiments and as the reference the
// dual is tested against. Primal phase 2 always prices with devex.
//
// The lp/ observability counters (lp/solves, lp/iterations,
// lp/dual_iterations, lp/degenerate_pivots, lp/bland_activations,
// lp/refactorizations, lp/eta_updates, lp/refactor_cadence) are always
// on and are read via obs.TakeSnapshot — see DESIGN.md §8. The
// factorization is rebuilt once the passes through its update etas
// have cost as much work as building it did (a count of entries and
// steps visited, so it repeats exactly); Options.RefactorGap fixes a
// count of etas instead. lp/eta_updates counts those product-form
// etas, one per basis change.
package lp
