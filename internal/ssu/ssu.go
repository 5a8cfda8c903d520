// Package ssu implements the static single use transform of §4.5/§10:
// just before instruction selection, the program is rewritten so that
// any use of a variable as an operand of a memory-write operation
// (including the write-side operands of hash, bit-test-set, and CSR
// writes) is the only non-clone use of that variable in the program.
//
// SSU is the dual of SSA, with cloning playing the role of phi-nodes:
// clone is semantically a copy, but clones of the same variable do not
// interfere, so the ILP allocator may keep them in one register and
// only pay for a physical copy where the solution actually splits them
// (§10). Without SSU, conflicting color constraints on the write side
// could make the coloring problem infeasible (§9, item 4).
//
// The analysis is whole-program: continuations freely reference
// variables bound in other continuations, so use counts and clone
// insertion must look across function boundaries.
package ssu

import "repro/internal/cps"

// Stats reports the transform's effect.
type Stats struct {
	Clones int // clone instructions inserted
}

// writeOperands returns pointers to the value slots of t that are
// write-side operands (sourced from the S or SD transfer banks).
func writeOperands(t cps.Term) []*cps.Value {
	switch t := t.(type) {
	case *cps.MemWrite:
		out := make([]*cps.Value, len(t.Srcs))
		for i := range t.Srcs {
			out[i] = &t.Srcs[i]
		}
		return out
	case *cps.Special:
		switch t.Kind {
		case cps.SpecHash:
			return []*cps.Value{&t.Args[0]}
		case cps.SpecBTS:
			return []*cps.Value{&t.Args[1]}
		case cps.SpecCSRWrite:
			return []*cps.Value{&t.Args[1]}
		}
	}
	return nil
}

// dupOperands returns the second slot of any ALU or branch operand
// pair that names the same variable twice: the machine cannot feed one
// register into both operand ports (each of A, B, L∪LD supplies at
// most one operand), so a clone must split them.
func dupOperands(t cps.Term) []*cps.Value {
	switch t := t.(type) {
	case *cps.Arith:
		if lv, ok := t.L.(cps.Var); ok {
			if rv, ok := t.R.(cps.Var); ok && lv == rv {
				return []*cps.Value{&t.R}
			}
		}
	case *cps.If:
		if lv, ok := t.L.(cps.Var); ok {
			if rv, ok := t.R.(cps.Var); ok && lv == rv {
				return []*cps.Value{&t.R}
			}
		}
	}
	return nil
}

// Transform rewrites p into SSU form in place.
func Transform(p *cps.Program) *Stats {
	st := &Stats{}

	// Whole-program analysis: non-clone use counts, and write and
	// duplicate-operand occurrences in walk order.
	uses := make([]int, p.NumVars())
	var writeOccs, dupOccs []*cps.Value
	for _, f := range p.Funs {
		if f == nil {
			continue
		}
		cps.Walk(&f.Body, func(slot *cps.Term) {
			t := *slot
			writeOccs = append(writeOccs, writeOperands(t)...)
			dupOccs = append(dupOccs, dupOperands(t)...)
			if _, isClone := t.(*cps.Clone); isClone {
				return
			}
			for _, v := range cps.Uses(t) {
				if vv, ok := v.(cps.Var); ok {
					uses[vv]++
				}
			}
		})
	}

	// Decide which occurrences need clones. A write occurrence keeps
	// the original only when it is the variable's sole non-clone use,
	// or when every use is a write and it is the first such occurrence.
	needed := make([][]*cps.Value, p.NumVars())
	kept := make([]bool, p.NumVars())
	for _, slot := range dupOccs {
		if v, ok := (*slot).(cps.Var); ok {
			needed[v] = append(needed[v], slot)
			st.Clones++
		}
	}
	for _, slot := range writeOccs {
		v, ok := (*slot).(cps.Var)
		if !ok {
			continue
		}
		if uses[v] == 1 {
			continue // already single-use
		}
		if !kept[v] && onlyWrites(v, uses[v], writeOccs) {
			kept[v] = true
			continue
		}
		needed[v] = append(needed[v], slot)
		st.Clones++
	}
	if st.Clones == 0 {
		return st
	}

	// Allocate clones, in variable order, and substitute the
	// occurrences. cloneChains also covers the clones themselves,
	// which the insertion walk visits.
	cloneChains := make([][]cps.Var, p.NumVars()+st.Clones)
	for v, slots := range needed {
		for _, slot := range slots {
			c := p.NewVar(p.VarName(cps.Var(v)) + "'")
			cloneChains[v] = append(cloneChains[v], c)
			*slot = c
		}
	}

	// Insert the clone bindings immediately after each variable's
	// definition (or at the top of its binding function for
	// parameters), so original and clones start out in the same
	// register (§10).
	for _, f := range p.Funs {
		if f == nil {
			continue
		}
		cps.Walk(&f.Body, func(slot *cps.Term) {
			for _, d := range cps.Defs(*slot) {
				if len(cloneChains[d]) > 0 {
					cps.SetCont(*slot, prependClones(d, cloneChains[d], cps.Cont(*slot)))
				}
			}
		})
		for _, v := range f.Params {
			f.Body = prependClones(v, cloneChains[v], f.Body)
		}
	}
	return st
}

// prependClones puts clone bindings of v into each of clones, in
// order, in front of k.
func prependClones(v cps.Var, clones []cps.Var, k cps.Term) cps.Term {
	for i := len(clones) - 1; i >= 0; i-- {
		k = &cps.Clone{Src: v, Dst: clones[i], K: k}
	}
	return k
}

// onlyWrites reports whether all of v's non-clone uses are write
// occurrences.
func onlyWrites(v cps.Var, total int, writeOccs []*cps.Value) bool {
	n := 0
	for _, slot := range writeOccs {
		if vv, ok := (*slot).(cps.Var); ok && vv == v {
			n++
		}
	}
	return n == total
}
