// Package opt implements the CPS optimizer of §4.4: constant folding,
// global constant propagation, local value propagation (CSE), eta
// reduction, contraction (inlining of called-once continuations),
// useless-variable elimination, dead-code elimination, and trimming of
// memory reads. The combination makes programming with records, tuples,
// pack, and unpack inexpensive: extractions of unused fields disappear.
package opt

import (
	"maps"
	"strconv"

	"repro/internal/ast"
	"repro/internal/cps"
	"repro/internal/types"
)

// Stats reports what the optimizer did.
type Stats struct {
	Rounds       int
	Folded       int // constant-folded or strength-reduced bindings
	Copies       int // copy/constant propagations
	Inlined      int // called-once functions inlined
	Eta          int // eta-reduced continuations
	DeadBindings int // pure bindings removed
	DeadFuns     int // unreachable functions removed
	TrimmedReads int // memory reads narrowed or removed
	CSE          int // local common subexpressions reused
	Hoisted      int // loop-invariant operations hoisted
}

// String renders the counters as one line of name=count pairs.
func (s *Stats) String() string {
	var b []byte
	for i, c := range []struct {
		name string
		n    int
	}{
		{"rounds", s.Rounds}, {"folded", s.Folded}, {"copies", s.Copies},
		{"inlined", s.Inlined}, {"eta", s.Eta}, {"dead", s.DeadBindings},
		{"deadfuns", s.DeadFuns}, {"trimmed", s.TrimmedReads}, {"cse", s.CSE},
		{"hoisted", s.Hoisted},
	} {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, c.name...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(c.n), 10)
	}
	return string(b)
}

// Optimize rewrites p in place until a fixed point (bounded by a round
// budget) and returns statistics.
func Optimize(p *cps.Program) *Stats {
	stats := &Stats{}
	runRounds := func() {
		for round := 0; round < 50; round++ {
			o := &optimizer{p: p, stats: stats, subst: make([]cps.Value, p.NumVars())}
			o.census()
			o.rewriteAll()
			o.removeUnreachable()
			o.dropUselessParams()
			stats.Rounds++
			if !o.changed {
				break
			}
		}
	}
	runRounds()
	// Loop-invariant hoisting exposes new simplifications (and vice
	// versa); alternate a few times.
	for i := 0; i < 3; i++ {
		n := hoistLoopInvariants(p)
		stats.Hoisted += n
		if n == 0 {
			break
		}
		runRounds()
	}
	return stats
}

// dropUselessParams removes function parameters whose only uses are as
// arguments in useless positions of other calls (§4.4 useless-variable
// elimination). This is what makes ignored record fields and unpack
// extractions truly free: their values stop flowing through join
// points, so the extractions die on the next round.
func (o *optimizer) dropUselessParams() {
	// A variable is useful if it has a direct use (any operand
	// occurrence except an App argument) or is an entry parameter, a
	// program input.
	useful := make([]bool, o.p.NumVars())
	var apps []*cps.App
	for _, f := range o.p.Funs {
		if f == nil {
			continue
		}
		cps.Walk(&f.Body, func(slot *cps.Term) {
			if app, ok := (*slot).(*cps.App); ok {
				apps = append(apps, app)
				return
			}
			for _, v := range cps.Uses(*slot) {
				if vv, ok := v.(cps.Var); ok {
					useful[vv] = true
				}
			}
		})
	}
	for _, pv := range o.p.Funs[o.p.Entry].Params {
		useful[pv] = true
	}
	// It is also useful if passed into a useful parameter position.
	// Iterate to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, app := range apps {
			callee := o.p.Funs[app.F]
			if callee == nil {
				continue
			}
			for i, a := range app.Args {
				if i >= len(callee.Params) {
					break
				}
				av, isVar := a.(cps.Var)
				if !isVar || useful[av] {
					continue
				}
				if useful[callee.Params[i]] {
					useful[av] = true
					changed = true
				}
			}
		}
	}
	// Physically drop useless parameters and the matching arguments.
	keepMask := make([][]bool, o.p.NumLabels())
	for l, f := range o.p.Funs {
		if f == nil || cps.Label(l) == o.p.Entry {
			continue
		}
		mask := make([]bool, len(f.Params))
		var kept []cps.Var
		for i, pv := range f.Params {
			mask[i] = useful[pv]
			if mask[i] {
				kept = append(kept, pv)
			}
		}
		if len(kept) < len(f.Params) {
			o.stats.DeadBindings += len(f.Params) - len(kept)
			o.changed = true
			keepMask[l] = mask
			f.Params = kept
		}
	}
	for _, app := range apps {
		mask := keepMask[app.F]
		if mask == nil {
			continue
		}
		var kept []cps.Value
		for i, a := range app.Args {
			if i < len(mask) && mask[i] {
				kept = append(kept, a)
			}
		}
		app.Args = kept
	}
}

type optimizer struct {
	p     *cps.Program
	stats *Stats
	// Per-variable tables, indexed by cps.Var. trimRead extends them
	// for the variables it creates.
	subst []cps.Value // nil: no substitution
	uses  []int
	// Per-label tables, indexed by cps.Label.
	labUses []int
	inline  []bool // labels currently being inlined (cycle guard)
	changed bool
}

// reachable walks the functions reachable from the entry, calling
// visit, when not nil, on every term slot of each, and returns the
// reached labels.
func (o *optimizer) reachable(visit func(*cps.Term)) []bool {
	reach := make([]bool, o.p.NumLabels())
	reach[o.p.Entry] = true
	work := []cps.Label{o.p.Entry}
	for len(work) > 0 {
		f := o.p.Funs[work[len(work)-1]]
		work = work[:len(work)-1]
		if f == nil {
			continue
		}
		cps.Walk(&f.Body, func(slot *cps.Term) {
			if visit != nil {
				visit(slot)
			}
			if app, ok := (*slot).(*cps.App); ok && !reach[app.F] {
				reach[app.F] = true
				work = append(work, app.F)
			}
		})
	}
	return reach
}

// census counts variable and label uses over functions reachable from
// the entry.
func (o *optimizer) census() {
	o.uses = make([]int, o.p.NumVars())
	o.labUses = make([]int, o.p.NumLabels())
	o.inline = make([]bool, o.p.NumLabels())
	o.reachable(func(slot *cps.Term) {
		for _, v := range cps.Uses(*slot) {
			if vv, ok := v.(cps.Var); ok {
				o.uses[vv]++
			}
		}
		if app, ok := (*slot).(*cps.App); ok {
			o.labUses[app.F]++
		}
	})
}

func (o *optimizer) rewriteAll() {
	// Rewrite each reachable function in label order. Census is
	// recomputed per round, so inlining decisions are based on
	// slightly stale counts — safe, because counts only shrink.
	for l, f := range o.p.Funs {
		if f == nil { // inlined away earlier in this round
			continue
		}
		if o.labUses[l] == 0 && cps.Label(l) != o.p.Entry {
			continue
		}
		f.Body = o.rewrite(f.Body, map[cseKey]cps.Var{})
	}
}

func (o *optimizer) val(v cps.Value) cps.Value {
	for {
		vv, ok := v.(cps.Var)
		if !ok {
			return v
		}
		if o.subst[vv] == nil {
			return v
		}
		v = o.subst[vv]
	}
}

func (o *optimizer) vals(vs []cps.Value) []cps.Value {
	out := make([]cps.Value, len(vs))
	for i, v := range vs {
		out[i] = o.val(v)
	}
	return out
}

// anyUsed reports whether any of the variables is used (after the
// current round's census).
func (o *optimizer) anyUsed(vs []cps.Var) bool {
	for _, v := range vs {
		if o.uses[v] > 0 {
			return true
		}
	}
	return false
}

// cseKey names one arithmetic expression for local CSE. Its operands
// compare as interfaces, so a variable and a constant with the same
// number are different keys.
type cseKey struct {
	op   ast.BinOp
	l, r cps.Value
}

func (o *optimizer) rewrite(t cps.Term, cse map[cseKey]cps.Var) cps.Term {
	switch t := t.(type) {
	case *cps.Arith:
		l, r := o.val(t.L), o.val(t.R)
		t.L, t.R = l, r
		// Useless binding: safe to drop outright (no uses anywhere).
		if o.uses[t.Dst] == 0 {
			o.stats.DeadBindings++
			o.changed = true
			return o.rewrite(t.K, cse)
		}
		// Constant folding, identities, and local CSE record a
		// substitution but KEEP the binding: uses inside functions
		// rewritten earlier this round still reference the old name,
		// and the substitution map does not survive rounds. Dead-code
		// elimination drops the binding once every use is rewritten.
		if lc, ok := l.(cps.Const); ok {
			if rc, ok := r.(cps.Const); ok {
				if v, ok := types.EvalBinop(t.Op, uint32(lc), uint32(rc)); ok {
					if o.subst[t.Dst] == nil {
						o.subst[t.Dst] = cps.Const(v)
						o.stats.Folded++
						o.changed = true
					}
					t.K = o.rewrite(t.K, cse)
					return t
				}
			}
		}
		if v, ok := simplifyArith(t.Op, l, r); ok {
			if o.subst[t.Dst] == nil {
				o.subst[t.Dst] = v
				o.stats.Folded++
				o.changed = true
			}
			t.K = o.rewrite(t.K, cse)
			return t
		}
		// Local CSE.
		key := cseKey{t.Op, l, r}
		if prev, ok := cse[key]; ok && prev != t.Dst {
			if o.subst[t.Dst] == nil {
				o.subst[t.Dst] = prev
				o.stats.CSE++
				o.changed = true
			}
			t.K = o.rewrite(t.K, cse)
			return t
		}
		cse[key] = t.Dst
		t.K = o.rewrite(t.K, cse)
		return t
	case *cps.Clone:
		if o.uses[t.Dst] == 0 {
			o.stats.DeadBindings++
			o.changed = true
			return o.rewrite(t.K, cse)
		}
		if sv, ok := o.val(t.Src).(cps.Var); ok {
			t.Src = sv
		} else {
			// Clone of a constant: propagate the constant; the binding
			// dies once every use is rewritten.
			if o.subst[t.Dst] == nil {
				o.subst[t.Dst] = o.val(t.Src)
				o.stats.Copies++
				o.changed = true
			}
		}
		t.K = o.rewrite(t.K, cse)
		return t
	case *cps.MemRead:
		t.Addr = o.val(t.Addr)
		if trimmed, ok := o.trimRead(t); ok {
			return o.rewrite(trimmed, cse)
		}
		t.K = o.rewrite(t.K, cse)
		return t
	case *cps.MemWrite:
		t.Addr = o.val(t.Addr)
		t.Srcs = o.vals(t.Srcs)
		t.K = o.rewrite(t.K, cse)
		return t
	case *cps.Special:
		t.Args = o.vals(t.Args)
		// A hash whose result is unused is pure and removable; the
		// other specials have observable effects.
		if t.Kind == cps.SpecHash && !o.anyUsed(t.Dsts) {
			o.stats.DeadBindings++
			o.changed = true
			return o.rewrite(t.K, cse)
		}
		t.K = o.rewrite(t.K, cse)
		return t
	case *cps.If:
		l, r := o.val(t.L), o.val(t.R)
		t.L, t.R = l, r
		if lc, ok := l.(cps.Const); ok {
			if rc, ok := r.(cps.Const); ok {
				o.stats.Folded++
				o.changed = true
				if types.EvalCmp(t.Cmp, uint32(lc), uint32(rc)) {
					return o.rewrite(t.Then, cse)
				}
				return o.rewrite(t.Else, cse)
			}
		}
		// Branches get private CSE scopes seeded from the current one.
		t.Then = o.rewrite(t.Then, maps.Clone(cse))
		t.Else = o.rewrite(t.Else, maps.Clone(cse))
		return t
	case *cps.App:
		t.Args = o.vals(t.Args)
		f := o.p.Funs[t.F]
		if f == nil {
			return t
		}
		// Eta: goto a function that just forwards to another label.
		if app, ok := f.Body.(*cps.App); ok && len(f.Params) == len(app.Args) && t.F != app.F {
			forwards := true
			for i, a := range app.Args {
				av, isVar := a.(cps.Var)
				if !isVar || av != f.Params[i] {
					forwards = false
					break
				}
			}
			if forwards {
				o.stats.Eta++
				o.changed = true
				t.F = app.F
				return o.rewrite(t, cse)
			}
		}
		// Contraction: inline a function with exactly one call site.
		if o.labUses[t.F] == 1 && t.F != o.p.Entry && !o.inline[t.F] {
			o.inline[t.F] = true
			for i, p := range f.Params {
				o.subst[p] = t.Args[i]
			}
			o.stats.Inlined++
			o.changed = true
			body := o.rewrite(f.Body, cse)
			o.p.Funs[t.F] = nil
			return body
		}
		return t
	case *cps.Halt:
		t.Results = o.vals(t.Results)
		return t
	}
	return t
}

// trimRead narrows a memory read to the span of used destinations
// (§4.4 "trimming of memory reads"), or removes it entirely when every
// destination is dead. SDRAM reads keep 2-word alignment and size.
func (o *optimizer) trimRead(t *cps.MemRead) (cps.Term, bool) {
	n := len(t.Dsts)
	lo := 0
	for lo < n && o.uses[t.Dsts[lo]] == 0 {
		lo++
	}
	if lo == n {
		o.stats.TrimmedReads++
		o.changed = true
		return t.K, true
	}
	hi := n
	for hi > lo && o.uses[t.Dsts[hi-1]] == 0 {
		hi--
	}
	if t.Space == cps.SpaceSDRAM {
		lo &^= 1 // keep even offset
		if (hi-lo)%2 != 0 {
			hi++
		}
	}
	if lo == 0 && hi == n {
		return nil, false
	}
	// Narrow: adjust the address by lo words.
	o.stats.TrimmedReads++
	o.changed = true
	t.Dsts = t.Dsts[lo:hi]
	if lo > 0 {
		if c, ok := t.Addr.(cps.Const); ok {
			t.Addr = cps.Const(uint32(c) + uint32(lo))
			return nil, false
		}
		addr := o.p.NewVar("addr_trim")
		add := &cps.Arith{Op: ast.OpAdd, L: t.Addr, R: cps.Const(uint32(lo)), Dst: addr, K: t}
		t.Addr = addr
		// The census predates this binding; record its use so the
		// dead-code check doesn't immediately remove it.
		o.uses = append(o.uses, 1)
		o.subst = append(o.subst, nil)
		return add, true
	}
	return nil, false
}

// removeUnreachable deletes functions no longer reachable from entry.
func (o *optimizer) removeUnreachable() {
	reach := o.reachable(nil)
	for l, f := range o.p.Funs {
		if f != nil && !reach[l] {
			o.p.Funs[l] = nil
			o.stats.DeadFuns++
			o.changed = true
		}
	}
}

// simplifyArith applies operator identities. It returns the simplified
// value when the operation is a no-op or constant.
func simplifyArith(op ast.BinOp, l, r cps.Value) (cps.Value, bool) {
	lc, lIsC := l.(cps.Const)
	rc, rIsC := r.(cps.Const)
	switch op {
	case ast.OpAdd:
		if rIsC && rc == 0 {
			return l, true
		}
		if lIsC && lc == 0 {
			return r, true
		}
	case ast.OpSub:
		if rIsC && rc == 0 {
			return l, true
		}
		if l == r {
			if _, isVar := l.(cps.Var); isVar {
				return cps.Const(0), true
			}
		}
	case ast.OpMul:
		if rIsC && rc == 1 {
			return l, true
		}
		if lIsC && lc == 1 {
			return r, true
		}
		if (rIsC && rc == 0) || (lIsC && lc == 0) {
			return cps.Const(0), true
		}
	case ast.OpAnd:
		if rIsC && rc == 0xffffffff {
			return l, true
		}
		if lIsC && lc == 0xffffffff {
			return r, true
		}
		if (rIsC && rc == 0) || (lIsC && lc == 0) {
			return cps.Const(0), true
		}
		if l == r {
			return l, true
		}
	case ast.OpOr:
		if rIsC && rc == 0 {
			return l, true
		}
		if lIsC && lc == 0 {
			return r, true
		}
		if l == r {
			return l, true
		}
	case ast.OpXor:
		if rIsC && rc == 0 {
			return l, true
		}
		if lIsC && lc == 0 {
			return r, true
		}
	case ast.OpShl, ast.OpShr:
		if rIsC && rc == 0 {
			return l, true
		}
		if lIsC && lc == 0 {
			return cps.Const(0), true
		}
	}
	return nil, false
}
