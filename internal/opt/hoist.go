package opt

import (
	"repro/internal/ast"
	"repro/internal/cps"
)

// hoistLoopInvariants implements §4.4's "simple hoisting of arithmetic
// operations": a pure word operation inside a self-recursive
// continuation (a loop) whose operands are loop-invariant moves in
// front of the loop's single external entry, so it executes once
// instead of once per iteration.
//
// Division and modulo are not hoisted (they may trap on paths the loop
// would not have executed); everything else in the ALU repertoire is
// pure.
func hoistLoopInvariants(p *cps.Program) int {
	hoisted := 0
	for l, f := range p.Funs {
		if f == nil || !callsLabel(f, cps.Label(l)) {
			continue
		}
		// The loop must have exactly one external entry point.
		site := externalApp(p, cps.Label(l))
		if site == nil {
			continue
		}
		for {
			ar := extractInvariantArith(f, boundVars(p, f))
			if ar == nil {
				break
			}
			// Splice the binding in front of the external App.
			ar.K = *site
			*site = ar
			site = &ar.K
			hoisted++
		}
	}
	return hoisted
}

// callsLabel reports whether f's body contains an App to l.
func callsLabel(f *cps.Fun, l cps.Label) bool {
	calls := false
	cps.Walk(&f.Body, func(slot *cps.Term) {
		if app, ok := (*slot).(*cps.App); ok && app.F == l {
			calls = true
		}
	})
	return calls
}

// externalApp returns the slot holding the unique App to l outside l's
// own body, or nil when there is not exactly one such site.
func externalApp(p *cps.Program, l cps.Label) *cps.Term {
	var site *cps.Term
	count := 0
	for fl, f := range p.Funs {
		if f == nil || cps.Label(fl) == l {
			continue
		}
		cps.Walk(&f.Body, func(slot *cps.Term) {
			if app, ok := (*slot).(*cps.App); ok && app.F == l {
				count++
				site = slot
			}
		})
	}
	if count != 1 {
		return nil
	}
	return site
}

// boundVars marks the parameters of f and every variable defined
// inside its body.
func boundVars(p *cps.Program, f *cps.Fun) []bool {
	bound := make([]bool, p.NumVars())
	for _, pv := range f.Params {
		bound[pv] = true
	}
	cps.Walk(&f.Body, func(slot *cps.Term) {
		for _, d := range cps.Defs(*slot) {
			bound[d] = true
		}
	})
	return bound
}

// extractInvariantArith removes and returns the first pure arithmetic
// binding in f whose operands are all free (loop-invariant), or nil.
func extractInvariantArith(f *cps.Fun, bound []bool) *cps.Arith {
	invariant := func(v cps.Value) bool {
		vv, isVar := v.(cps.Var)
		return !isVar || !bound[vv]
	}
	var found *cps.Arith
	cps.Walk(&f.Body, func(slot *cps.Term) {
		ar, ok := (*slot).(*cps.Arith)
		if ok && found == nil && ar.Op != ast.OpDiv && ar.Op != ast.OpMod &&
			invariant(ar.L) && invariant(ar.R) {
			found = ar
			*slot = ar.K // splice the binding out
		}
	})
	return found
}
