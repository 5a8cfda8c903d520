package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cps"
	"repro/internal/mir"
)

// pruneBanks computes the allowed bank set per temporary (§8 of the
// paper: "if a temporary is loaded from SRAM memory and is never
// stored back anywhere, then there is no reason for it to ever be in
// S, SD, or LD"). Every temp may use the general banks and the spill
// space; transfer banks are added only when a definition arrives there
// or a use requires them.
func (g *graph) pruneBanks() []bankSet {
	nt := g.mp.NumTemps()
	allowed := make([]bankSet, nt)
	base := setOf(A, B)
	if !g.opts.NoSpill {
		base = base.add(M)
	}
	if !g.opts.Prune {
		all := allBanksNoC
		if g.opts.NoSpill {
			all = all.del(M)
		}
		for i := range allowed {
			allowed[i] = all
			if g.opts.Remat && g.isConst[i] {
				allowed[i] = allowed[i].add(C)
			}
		}
		return allowed
	}
	for i := range allowed {
		allowed[i] = base
		if g.opts.Remat && g.isConst[i] {
			allowed[i] = allowed[i].add(C)
		}
	}
	for _, b := range g.mp.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Kind {
			case mir.KMemRead:
				bank := readBank(in.Space)
				for _, d := range in.Dsts {
					allowed[d] = allowed[d].add(bank)
				}
			case mir.KMemWrite:
				bank := writeBank(in.Space)
				for _, s := range in.Srcs[1:] {
					if !s.IsImm {
						allowed[s.Temp] = allowed[s.Temp].add(bank)
					}
				}
			case mir.KSpecial:
				switch in.Special {
				case cps.SpecHash:
					allowed[in.Srcs[0].Temp] = allowed[in.Srcs[0].Temp].add(S)
					allowed[in.Dsts[0]] = allowed[in.Dsts[0]].add(L)
				case cps.SpecBTS:
					allowed[in.Srcs[1].Temp] = allowed[in.Srcs[1].Temp].add(S)
					allowed[in.Dsts[0]] = allowed[in.Dsts[0]].add(L)
				case cps.SpecCSRRead:
					allowed[in.Dsts[0]] = allowed[in.Dsts[0]].add(L)
				case cps.SpecCSRWrite:
					allowed[in.Srcs[1].Temp] = allowed[in.Srcs[1].Temp].add(S)
				}
			}
		}
	}
	// Clones share residency possibilities with their set: a clone that
	// must reach S starts wherever its source lives.
	changed := true
	for changed {
		changed = false
		for _, b := range g.mp.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Kind != mir.KClone {
					continue
				}
				d, s := in.Dsts[0], in.Srcs[0].Temp
				// The clone begins in its source's location, so every
				// bank the source may occupy is a possible start for
				// the clone and vice versa (they are unified at the
				// clone point).
				u := allowed[d] | allowed[s]
				if u != allowed[d] || u != allowed[s] {
					allowed[d], allowed[s] = u, u
					changed = true
				}
			}
		}
	}
	return allowed
}

func readBank(s cps.Space) Bank {
	if s == cps.SpaceSDRAM {
		return LD
	}
	return L
}

func writeBank(s cps.Space) Bank {
	if s == cps.SpaceSDRAM {
		return SD
	}
	return S
}

// chainBuilder builds the location chains of one block.
type chainBuilder struct {
	g       *graph
	b       *mir.Block
	base    pointID
	allowed []bankSet
	// events lists the block's move opportunities, one entry per
	// (temp, instruction index) occurrence.
	events []event
}

// event is a move opportunity of v before instruction idx, with the
// operand class to intersect into the post-move location there
// (anyBank when the operand class does not narrow it).
type event struct {
	v      mir.Temp
	idx    int
	narrow bankSet
}

func (g *graph) buildBlock(b *mir.Block, lv *mir.Liveness, allowed []bankSet) error {
	cb := &chainBuilder{g: g, b: b, base: g.entry[b.ID], allowed: allowed}
	return cb.run(lv)
}

func (cb *chainBuilder) event(v mir.Temp, idx int) { cb.narrowAt(v, idx, anyBank) }

func (cb *chainBuilder) narrowAt(v mir.Temp, idx int, s bankSet) {
	cb.events = append(cb.events, event{v, idx, s})
}

// sortedEvents sorts the events by temp and index and folds repeats:
// the narrowings of one temp at one index intersect.
func (cb *chainBuilder) sortedEvents() []event {
	slices.SortFunc(cb.events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.idx, b.idx))
	})
	out := cb.events[:0]
	for _, e := range cb.events {
		if n := len(out); n > 0 && out[n-1].v == e.v && out[n-1].idx == e.idx {
			out[n-1].narrow = out[n-1].narrow.intersect(e.narrow)
		} else {
			out = append(out, e)
		}
	}
	return out
}

var readableSet = setOf(A, B, L, LD)
var abwSet = setOf(A, B, S, SD)

func (cb *chainBuilder) run(lv *mir.Liveness) error {
	g, b := cb.g, cb.b
	nInstr := len(b.Instrs)
	exitIdx := int(g.exit(b.ID) - cb.base)
	pt := func(idx int) pointID { return cb.base + pointID(idx) }

	// Live sets per point index.
	liveAt := lv.Points(b)
	if exitIdx > nInstr {
		liveAt = append(liveAt, lv.Out[b.ID])
	}

	// def[v] is v's definition in this block, if any (arrive is then
	// nonempty; temps are SSA, each defined once). A definition opens
	// a move opportunity right after it.
	type defRec struct {
		idx    int
		arrive bankSet
	}
	def := make([]defRec, len(cb.allowed))
	define := func(v mir.Temp, idx int, arrive bankSet) {
		def[v] = defRec{idx: idx, arrive: arrive}
		cb.event(v, idx+1)
	}
	type pendingPair struct {
		x, y mir.Temp
		idx  int
	}
	var pendingPairs []pendingPair

	// Scan instructions: collect events, narrowings, aggregates,
	// same-register pairs, and clone links.
	type clonePending struct {
		d, s mir.Temp
		idx  int
	}
	var clones []clonePending
	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Kind {
		case mir.KALU:
			var ops [2]mir.Temp
			n := 0
			for _, s := range in.Srcs {
				if !s.IsImm {
					ops[n] = s.Temp
					n++
					cb.narrowAt(s.Temp, i, readableSet)
				}
			}
			if n == 2 {
				if ops[0] == ops[1] {
					return fmt.Errorf("core: instruction %q uses %s twice; SSU should have cloned it",
						g.mp.FormatInstr(in), g.mp.TempName(ops[0]))
				}
				pendingPairs = append(pendingPairs, pendingPair{ops[0], ops[1], i})
			}
			define(in.Dsts[0], i, abwSet)
		case mir.KImm:
			arrive := abwSet
			if g.opts.Remat && g.isConst[in.Dsts[0]] {
				arrive = setOf(C)
			}
			define(in.Dsts[0], i, arrive)
		case mir.KMemRead:
			cb.narrowAt(in.Srcs[0].Temp, i, readableSet)
			bank := readBank(in.Space)
			for _, d := range in.Dsts {
				define(d, i, setOf(bank))
			}
			g.aggs = append(g.aggs, aggregate{bank: bank, temps: append([]mir.Temp(nil), in.Dsts...)})
		case mir.KMemWrite:
			cb.narrowAt(in.Srcs[0].Temp, i, readableSet)
			bank := writeBank(in.Space)
			var temps []mir.Temp
			for _, s := range in.Srcs[1:] {
				if s.IsImm {
					return fmt.Errorf("core: immediate store operand survived isel")
				}
				cb.narrowAt(s.Temp, i, setOf(bank))
				temps = append(temps, s.Temp)
			}
			g.aggs = append(g.aggs, aggregate{bank: bank, temps: temps})
		case mir.KSpecial:
			switch in.Special {
			case cps.SpecHash:
				cb.narrowAt(in.Srcs[0].Temp, i, setOf(S))
				define(in.Dsts[0], i, setOf(L))
				g.sameRegs = append(g.sameRegs, sameRegCon{dst: in.Dsts[0], src: in.Srcs[0].Temp, dstBank: L, srcBank: S})
			case cps.SpecBTS:
				cb.narrowAt(in.Srcs[0].Temp, i, readableSet)
				cb.narrowAt(in.Srcs[1].Temp, i, setOf(S))
				define(in.Dsts[0], i, setOf(L))
				g.sameRegs = append(g.sameRegs, sameRegCon{dst: in.Dsts[0], src: in.Srcs[1].Temp, dstBank: L, srcBank: S})
			case cps.SpecCSRRead:
				cb.narrowAt(in.Srcs[0].Temp, i, readableSet)
				define(in.Dsts[0], i, setOf(L))
			case cps.SpecCSRWrite:
				cb.narrowAt(in.Srcs[0].Temp, i, readableSet)
				cb.narrowAt(in.Srcs[1].Temp, i, setOf(S))
			case cps.SpecCtxSwap:
				// no operands
			}
		case mir.KClone:
			clones = append(clones, clonePending{d: in.Dsts[0], s: in.Srcs[0].Temp, idx: i})
			cb.event(in.Dsts[0], i+1)
			// The clone's chain starts at i+1 via a unified arrival;
			// recorded after chains are built.
		case mir.KMove:
			return fmt.Errorf("core: KMove before allocation")
		}
	}
	// Terminator uses.
	switch t := b.Term.(type) {
	case *mir.Branch:
		var ops []mir.Temp
		for _, o := range []mir.Operand{t.L, t.R} {
			if !o.IsImm {
				ops = append(ops, o.Temp)
				cb.narrowAt(o.Temp, nInstr, readableSet)
			}
		}
		if len(ops) == 2 {
			if ops[0] == ops[1] {
				return fmt.Errorf("core: branch compares %s with itself; SSU should have cloned it",
					g.mp.TempName(ops[0]))
			}
			pendingPairs = append(pendingPairs, pendingPair{ops[0], ops[1], nInstr})
		}
		if len(t.Then.Args) > 0 || len(t.Else.Args) > 0 {
			return fmt.Errorf("core: branch edges with arguments are not produced by isel")
		}
	case *mir.Jump:
		for _, a := range t.Edge.Args {
			if !a.IsImm {
				cb.event(a.Temp, nInstr)
			}
		}
	case *mir.Halt:
		for _, r := range t.Results {
			if !r.IsImm {
				cb.narrowAt(r.Temp, nInstr, readableSet)
			}
		}
	}
	// Entry and exit events for block-crossing variables.
	// temps lists one live set's members in ascending order.
	temps := liveAt[0].AppendTo(nil)
	for _, v := range temps {
		cb.event(v, 0)
	}
	temps = lv.Out[b.ID].AppendTo(temps[:0])
	for _, v := range temps {
		cb.event(v, exitIdx) // exit point: after the branch if any
	}
	// With coarsening off, every live point is an event (the paper's
	// per-point move model).
	if !cb.g.opts.Coarsen {
		for k := 0; k <= exitIdx; k++ {
			temps = liveAt[k].AppendTo(temps[:0])
			for _, v := range temps {
				cb.event(v, k)
			}
		}
	}

	// Build chains per temp that has events here (every defined temp
	// does), in temp order.
	evs := cb.sortedEvents()
	for len(evs) > 0 {
		v := evs[0].v
		n := 1
		for n < len(evs) && evs[n].v == v {
			n++
		}
		vEvs := evs[:n]
		evs = evs[n:]
		// v's runs in this block (an arrival and one per event)
		// follow those of earlier blocks.
		runs := slices.Grow(g.active[v], 1+len(vEvs))
		var cur locID = -1
		startIdx := 0
		if d := def[v]; d.arrive != 0 {
			arrive := d.arrive.intersect(cb.allowed[v])
			if g.opts.Remat && g.isConst[v] && d.arrive.has(C) {
				arrive = setOf(C)
			}
			if arrive == 0 {
				return fmt.Errorf("core: temp %s has no feasible arrival bank", g.mp.TempName(v))
			}
			cur = g.newLoc(v, arrive)
			runs = append(runs, activeRun{from: pt(d.idx + 1), loc: cur, arrival: true})
			startIdx = d.idx + 1
		} else if ci := slices.IndexFunc(clones, func(c clonePending) bool { return c.d == v }); ci >= 0 {
			cp := clones[ci]
			// Arrival location unified with the source's location at
			// the clone point (After[p1], §10).
			cur = g.newLoc(v, cb.allowed[v])
			runs = append(runs, activeRun{from: pt(cp.idx + 1), loc: cur, arrival: true})
			startIdx = cp.idx + 1
			g.cloneLinks = append(g.cloneLinks, cloneLink{
				dLoc: cur, d: v, s: cp.s, sLoc: -1, point: pt(cp.idx),
			})
		} else {
			// Live-in (parameter or live-through): arrival at entry,
			// so beforeLocAt finds this run at a block entry.
			allow := cb.allowed[v]
			if b.ID == 0 {
				// Program entry: the host ABI delivers arguments in
				// registers, never in spill memory or the virtual
				// constant bank.
				allow = allow.del(M).del(C)
				if allow == 0 {
					return fmt.Errorf("core: entry parameter %s has no register bank", g.mp.TempName(v))
				}
			}
			cur = g.newLoc(v, allow)
			runs = append(runs, activeRun{from: pt(0), loc: cur, arrival: true})
			startIdx = 0
		}
		for _, e := range vEvs {
			if e.idx < startIdx {
				continue
			}
			idx := e.idx
			allow := cb.allowed[v]
			if e.narrow != anyBank {
				allow = allow.intersect(e.narrow)
				if g.opts.Remat && g.isConst[v] {
					// Constants can always re-materialize into the
					// required class; C itself is excluded at uses.
					allow = allow.del(C)
				}
			} else if g.opts.Remat && g.isConst[v] {
				allow = allow.add(C)
			}
			if allow == 0 {
				return fmt.Errorf("core: temp %s has no feasible bank at %s",
					g.mp.TempName(v), g.pointName(pt(idx)))
			}
			post := g.newLoc(v, allow)
			g.arcs = append(g.arcs, arc{v: v, from: cur, to: post, point: pt(idx)})
			runs = append(runs, activeRun{from: pt(idx), loc: post})
			cur = post
		}
		g.active[v] = runs
	}
	// Clone arrival unification (source location now known).
	for i := range g.cloneLinks {
		cl := &g.cloneLinks[i]
		if cl.sLoc >= 0 {
			continue
		}
		s := g.activeLocAt(cl.s, cl.point)
		if s < 0 {
			return fmt.Errorf("core: clone source %s has no location at %s",
				g.mp.TempName(cl.s), g.pointName(cl.point))
		}
		cl.sLoc = s
		g.union(cl.dLoc, s)
	}
	// Pair constraints on the post-move locations at the use point:
	// each operand has an event there, so its post-move run is the
	// last one starting at or before the point.
	for _, pp := range pendingPairs {
		p := pt(pp.idx)
		g.pairs = append(g.pairs, pair{x: g.activeLocAt(pp.x, p), y: g.activeLocAt(pp.y, p)})
	}
	// Per-point occupancy lists (the Exists set with before/after
	// sides, §6 K constraints). Defs and clones arriving at a point
	// also exist there even if dead (the paper's Exists ⊇ live
	// distinction). The block's lists share one backing array per
	// side, sized from its live sets.
	size := 0
	for k := 0; k <= exitIdx; k++ {
		if k > 0 && k <= nInstr {
			for _, d := range b.Instrs[k-1].Dsts {
				liveAt[k].Add(d)
			}
		}
		size += liveAt[k].Len()
	}
	before := make([]locEntry, 0, size)
	after := make([]locEntry, 0, size)
	for k := 0; k <= exitIdx; k++ {
		p := pt(k)
		nb, na := len(before), len(after)
		temps = liveAt[k].AppendTo(temps[:0])
		for _, v := range temps {
			if l := g.beforeLocAt(v, p); l >= 0 {
				before = append(before, locEntry{v: v, loc: l})
			}
			if l := g.activeLocAt(v, p); l >= 0 {
				after = append(after, locEntry{v: v, loc: l})
			}
		}
		g.beforeLocs[p] = before[nb:len(before):len(before)]
		g.afterLocs[p] = after[na:len(after):len(after)]
	}
	return nil
}

// beforeLocAt returns v's location just before any move at p: the
// arrival run starting exactly at p if one exists, else the last run
// starting strictly before p. The occupancy lists, extraction and
// emission all use it. At a block entry it is the entry's arrival web,
// which edge unification joins to each predecessor's exit web; the
// last location of the previous block in layout order may belong to
// another branch arm.
func (g *graph) beforeLocAt(v mir.Temp, p pointID) locID {
	runs := g.active[v]
	best := locID(-1)
	for _, r := range runs {
		if r.from < p {
			best = r.loc
		} else if r.from == p {
			// An arrival run at p (block entry, fresh definition, or
			// clone arrival) is the before-move location even when
			// earlier runs exist: those belong to an earlier block in
			// layout order — a different control-flow path, not this
			// point's past. Post-move runs at p are never "before".
			if r.arrival || best < 0 {
				best = r.loc
			}
			break
		} else {
			break
		}
	}
	return best
}
