// Package model is the ILP builder over the LP/MIP solvers. The paper
// (§5) writes its integer linear programs in AMPL; only the generated
// constraint system matters (DESIGN.md §1), so this layer builds that
// system directly. It provides what the paper's models need: 0-1 and
// continuous columns, linear rows, and model statistics (variable,
// constraint, and objective-term counts as reported in Figures 6 and
// 7).
//
// # Usage
//
// Binary and Continuous append a fresh column and return its index;
// the caller keeps the index under whatever typed key it needs, in
// place of AMPL's indexed declarations. A row is built in the model's
// own buffer: Term adds one term to the open row, and Le, Ge or Eq
// closes it with its right-hand side:
//
//	m := model.New()
//	pos := map[[2]int]int{}
//	for _, v := range temps {
//		for _, b := range banks {
//			pos[[2]int{v, b}] = m.Binary() // pos[v,b] ∈ {0,1}
//			m.Term(1, pos[[2]int{v, b}])
//		}
//		m.Eq(1) // sum_b pos[v,b] = 1
//	}
//	m.Term(1, pos[[2]int{t0, bankA}]).Term(1, pos[[2]int{t1, bankA}]).Le(1)
//	m.ObjAdd(pos[[2]int{t0, bankA}], 2.5) // objective term
//	res, err := m.Solve(nil)              // presolve + B&B
//	if err == nil {
//		_ = res.X[pos[[2]int{t0, bankA}]] // 0 or 1
//	}
//
// Solve runs the presolve reductions (bound propagation, fixing,
// row dropping — Options.Presolve) before handing the reduced program
// to mip.Solve, then maps the solution back to the original columns.
// WriteMPS exports the generated program in MPS format for
// cross-checking against an external solver, and ReadMPS reads it
// back.
//
// Presolve effort is published on the always-on obs counters
// (mip/presolve/fixed_vars, mip/presolve/dropped_rows,
// mip/presolve/rounds) and, when a recorder is installed, a
// mip/presolve span — see DESIGN.md §8.
package model
