// Package model is a small AMPL-like modeling layer over the LP/MIP
// solvers (the paper, §5, uses AMPL to describe, generate, and solve
// its integer linear programs). It provides what the paper's models
// need: families of 0-1 variables indexed by tuples drawn from sets,
// linear expression building, named constraint templates, and model
// statistics (variable, constraint, and objective-term counts as
// reported in Figures 6 and 7).
//
// # Usage
//
// Variables are created on first reference, keyed by family name plus
// an index tuple, exactly like AMPL's indexed declarations:
//
//	m := model.New()
//	for _, v := range temps {
//		for _, b := range banks {
//			m.Binary("pos", v, b)          // pos[v,b] ∈ {0,1}
//		}
//		e := model.NewExpr()
//		for _, b := range banks {
//			e.Add(1, m.Binary("pos", v, b))
//		}
//		m.Eq("one_bank", e, 1)                 // sum_b pos[v,b] = 1
//	}
//	m.ObjAdd(m.Binary("pos", t0, bankA), 2.5)      // objective term
//	res, err := m.Solve(nil)                       // presolve + B&B
//	if err == nil {
//		_ = m.Value(res, "pos", t0, bankA)     // 0 or 1
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
