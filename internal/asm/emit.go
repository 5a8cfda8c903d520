package asm

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
	"repro/internal/mir"
)

// Emit lowers an allocated MIR program to physical assembly.
// spillBase is the scratch word address where spill slot 0 lives.
func Emit(mp *mir.Program, res *core.Result, asn *core.Assignment, spillBase uint32) (*Program, error) {
	e := &emitter{
		mp: mp, res: res, asn: asn,
		prog:      &Program{SpillBase: spillBase},
		labelAt:   map[mir.BlockID]int{},
		movesAt:   map[int][]core.MoveRec{},
		inherited: map[mir.BlockID][]core.MoveRec{},
	}
	for _, m := range res.Moves {
		e.movesAt[m.Point] = append(e.movesAt[m.Point], m)
	}
	// Moves scheduled at a point after a branch comparison (the
	// branch's exit point) are emitted at the head of each successor
	// (isel gives branch targets a single predecessor).
	for _, b := range mp.Blocks {
		if br, ok := b.Term.(*mir.Branch); ok {
			_, exit := res.BlockPoints(b.ID)
			if ms := e.movesAt[exit]; len(ms) > 0 {
				e.inherited[br.Then.To] = append(e.inherited[br.Then.To], ms...)
				e.inherited[br.Else.To] = append(e.inherited[br.Else.To], ms...)
			}
		}
	}
	for _, b := range mp.Blocks {
		if err := e.block(b); err != nil {
			return nil, err
		}
	}
	// Resolve branch targets.
	for _, f := range e.fixups {
		at, ok := e.labelAt[f.target]
		if !ok {
			return nil, fmt.Errorf("asm: unresolved block b%d", f.target)
		}
		e.prog.Instrs[f.instr].Target = at
	}
	return e.prog, nil
}

type emitter struct {
	mp        *mir.Program
	res       *core.Result
	asn       *core.Assignment
	prog      *Program
	labelAt   map[mir.BlockID]int
	movesAt   map[int][]core.MoveRec // by point
	inherited map[mir.BlockID][]core.MoveRec
	fixups    []fixup
}

type fixup struct {
	instr  int
	target mir.BlockID
}

func (e *emitter) emit(in Instr) { e.prog.Instrs = append(e.prog.Instrs, in) }

// locAfter fetches the physical location of v after any move at point
// p of the current block.
func (e *emitter) locAfter(v mir.Temp, p int) (core.Loc, error) {
	l, ok := e.asn.LocAfter(v, p)
	if !ok {
		return core.Loc{}, fmt.Errorf("asm: no location for %s at point %d", e.mp.TempName(v), p)
	}
	return l, nil
}

func (e *emitter) locBefore(v mir.Temp, p int) (core.Loc, error) {
	l, ok := e.asn.LocBefore(v, p)
	if !ok {
		return core.Loc{}, fmt.Errorf("asm: no pre-location for %s at point %d", e.mp.TempName(v), p)
	}
	return l, nil
}

// regOperand converts a MIR operand read at point p.
func (e *emitter) regOperand(o mir.Operand, p int) (Operand, error) {
	if o.IsImm {
		return Imm(o.Imm), nil
	}
	l, err := e.locAfter(o.Temp, p)
	if err != nil {
		return Operand{}, err
	}
	return R(Reg{Bank: l.Bank, Idx: l.Reg}), nil
}

func (e *emitter) block(b *mir.Block) error {
	e.labelAt[b.ID] = len(e.prog.Instrs)
	entry, _ := e.res.BlockPoints(b.ID)
	pt := func(idx int) int { return entry + idx }

	if ms := e.inherited[b.ID]; len(ms) > 0 {
		if err := e.moves(ms); err != nil {
			return err
		}
	}
	nInstr := len(b.Instrs)
	for i := 0; i <= nInstr; i++ {
		if ms := e.movesAt[pt(i)]; len(ms) > 0 {
			if err := e.moves(ms); err != nil {
				return err
			}
		}
		if i == nInstr {
			break
		}
		if err := e.instr(&b.Instrs[i], pt(i), pt(i+1)); err != nil {
			return err
		}
	}
	return e.terminator(b, pt(nInstr))
}

func (e *emitter) instr(in *mir.Instr, at, after int) error {
	switch in.Kind {
	case mir.KALU:
		dst, err := e.locBefore(in.Dsts[0], after)
		if err != nil {
			return err
		}
		l, err := e.regOperand(in.Srcs[0], at)
		if err != nil {
			return err
		}
		r, err := e.regOperand(in.Srcs[1], at)
		if err != nil {
			return err
		}
		e.emit(Instr{Op: OpAlu, Alu: in.Op, Dst: Reg{dst.Bank, dst.Reg}, L: l, R: r})
	case mir.KImm:
		dst, err := e.locBefore(in.Dsts[0], after)
		if err != nil {
			return err
		}
		if dst.Bank == core.C {
			return nil // lives in the virtual constant bank until materialized
		}
		e.emit(Instr{Op: OpImm, Dst: Reg{dst.Bank, dst.Reg}, Val: in.Val})
	case mir.KMemRead:
		addr, err := e.regOperand(in.Srcs[0], at)
		if err != nil {
			return err
		}
		base, err := e.locBefore(in.Dsts[0], after)
		if err != nil {
			return err
		}
		e.emit(Instr{Op: OpRead, Space: in.Space, Addr: addr, Base: base.Reg, Count: len(in.Dsts)})
	case mir.KMemWrite:
		addr, err := e.regOperand(in.Srcs[0], at)
		if err != nil {
			return err
		}
		base, err := e.locAfter(in.Srcs[1].Temp, at)
		if err != nil {
			return err
		}
		e.emit(Instr{Op: OpWrite, Space: in.Space, Addr: addr, Base: base.Reg, Count: len(in.Srcs) - 1})
	case mir.KSpecial:
		switch in.Special {
		case cps.SpecHash:
			src, err := e.locAfter(in.Srcs[0].Temp, at)
			if err != nil {
				return err
			}
			dst, err := e.locBefore(in.Dsts[0], after)
			if err != nil {
				return err
			}
			e.emit(Instr{Op: OpHash, Dst: Reg{dst.Bank, dst.Reg}, Base: src.Reg})
		case cps.SpecBTS:
			addr, err := e.regOperand(in.Srcs[0], at)
			if err != nil {
				return err
			}
			src, err := e.locAfter(in.Srcs[1].Temp, at)
			if err != nil {
				return err
			}
			dst, err := e.locBefore(in.Dsts[0], after)
			if err != nil {
				return err
			}
			e.emit(Instr{Op: OpBTS, Addr: addr, Dst: Reg{dst.Bank, dst.Reg}, Base: src.Reg})
		case cps.SpecCSRRead:
			addr, err := e.regOperand(in.Srcs[0], at)
			if err != nil {
				return err
			}
			dst, err := e.locBefore(in.Dsts[0], after)
			if err != nil {
				return err
			}
			e.emit(Instr{Op: OpCSRRd, Addr: addr, Dst: Reg{dst.Bank, dst.Reg}})
		case cps.SpecCSRWrite:
			addr, err := e.regOperand(in.Srcs[0], at)
			if err != nil {
				return err
			}
			src, err := e.locAfter(in.Srcs[1].Temp, at)
			if err != nil {
				return err
			}
			e.emit(Instr{Op: OpCSRWr, Addr: addr, Base: src.Reg})
		case cps.SpecCtxSwap:
			e.emit(Instr{Op: OpCtxSwap})
		}
	case mir.KClone:
		// A clone is a copy that coalescing usually eliminates; when
		// the register assignment separated the two, emit the copy.
		if e.asn.CloneNeedsCopy(in.Dsts[0], in.Srcs[0].Temp) {
			src, err := e.locAfter(in.Srcs[0].Temp, at)
			if err != nil {
				return err
			}
			dst, err := e.locBefore(in.Dsts[0], after)
			if err != nil {
				return err
			}
			e.emit(Instr{Op: OpAlu, Alu: ast.OpAdd, Dst: Reg{dst.Bank, dst.Reg},
				L: R(Reg{src.Bank, src.Reg}), R: Imm(0)})
		}
	case mir.KMove:
		return fmt.Errorf("asm: unexpected KMove in MIR")
	}
	return nil
}

func (e *emitter) terminator(b *mir.Block, at int) error {
	switch t := b.Term.(type) {
	case *mir.Jump:
		// Parameter passing: coalesced renamings are free; the rest
		// form a parallel copy group resolved here.
		if copies := e.asn.EdgeCopies(b.ID, t.Edge.To); len(copies) > 0 {
			var group []pending
			for _, c := range copies {
				group = append(group, pending{
					dst: Reg{c.Dst.Bank, c.Dst.Reg},
					src: Reg{c.Src.Bank, c.Src.Reg}, hasSrc: true,
				})
			}
			e.parallel(group)
		}
		if int(t.Edge.To) != int(b.ID)+1 {
			e.fixups = append(e.fixups, fixup{instr: len(e.prog.Instrs), target: t.Edge.To})
			e.emit(Instr{Op: OpJmp})
		}
	case *mir.Branch:
		l, err := e.regOperand(t.L, at)
		if err != nil {
			return err
		}
		r, err := e.regOperand(t.R, at)
		if err != nil {
			return err
		}
		e.fixups = append(e.fixups, fixup{instr: len(e.prog.Instrs), target: t.Then.To})
		e.emit(Instr{Op: OpBr, Alu: t.Cmp, L: l, R: r})
		if int(t.Else.To) != int(b.ID)+1 {
			e.fixups = append(e.fixups, fixup{instr: len(e.prog.Instrs), target: t.Else.To})
			e.emit(Instr{Op: OpJmp})
		}
	case *mir.Halt:
		var results []Operand
		for _, rr := range t.Results {
			o, err := e.regOperand(rr, at)
			if err != nil {
				return err
			}
			results = append(results, o)
		}
		e.emit(Instr{Op: OpHalt, Results: results})
	}
	return nil
}

// pending is one element of a parallel copy group.
type pending struct {
	dst    Reg
	src    Reg
	isImm  bool
	immVal uint32
	hasSrc bool
}

// parallel sequentializes a parallel copy group: a copy is emitted
// only when its destination is no pending source; cycles (confined to
// A/B, since transfer banks are not both readable and writable) are
// broken through the reserved A register.
func (e *emitter) parallel(simple []pending) {
	emitSimple := func(p pending) {
		if p.isImm {
			e.emit(Instr{Op: OpImm, Dst: p.dst, Val: p.immVal})
			return
		}
		e.emit(Instr{Op: OpAlu, Alu: ast.OpAdd, Dst: p.dst, L: R(p.src), R: Imm(0)})
	}
	for len(simple) > 0 {
		progress := false
		for i := 0; i < len(simple); i++ {
			p := simple[i]
			blocked := false
			for j, q := range simple {
				if j != i && q.hasSrc && q.src == p.dst {
					blocked = true
					break
				}
			}
			if !blocked {
				emitSimple(p)
				simple = append(simple[:i], simple[i+1:]...)
				progress = true
				i--
			}
		}
		if progress {
			continue
		}
		// Cycle: route one value through the reserved A register.
		tmp := Reg{core.A, core.ReservedA}
		p := simple[0]
		e.emit(Instr{Op: OpAlu, Alu: ast.OpAdd, Dst: tmp, L: R(p.src), R: Imm(0)})
		simple[0].src = tmp
	}
}

// moves emits one parallel move group.
func (e *emitter) moves(group []core.MoveRec) error {
	var simple []pending
	type compositeMove struct {
		rec core.MoveRec
		src core.Loc
		dst core.Loc
	}
	var composite []compositeMove
	for _, m := range group {
		if m.To == core.C {
			continue // discarding a constant generates no code
		}
		dst, ok := e.asn.LocAfter(m.V, m.Point)
		if !ok {
			return fmt.Errorf("asm: move of %s has no destination", e.mp.TempName(m.V))
		}
		if m.From == core.C {
			// Materialize the constant.
			val := e.constVal(m.V)
			if dst.Bank == core.M {
				return fmt.Errorf("asm: constant %s materialized into spill space", e.mp.TempName(m.V))
			}
			simple = append(simple, pending{dst: Reg{dst.Bank, dst.Reg}, isImm: true, immVal: val})
			continue
		}
		src, ok := e.asn.LocBefore(m.V, m.Point)
		if !ok {
			return fmt.Errorf("asm: move of %s has no source", e.mp.TempName(m.V))
		}
		if core.MoveCost(m.From, m.To) == core.MvC {
			simple = append(simple, pending{
				dst: Reg{dst.Bank, dst.Reg}, src: Reg{src.Bank, src.Reg}, hasSrc: true,
			})
			continue
		}
		composite = append(composite, compositeMove{rec: m, src: src, dst: dst})
	}
	e.parallel(simple)
	// Composite moves (spills, reloads, cross-transfer paths) run
	// sequentially through the free transfer register the model's
	// needsSpill constraint guaranteed.
	for _, cm := range composite {
		if err := e.composite(cm.rec, cm.src, cm.dst); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) constVal(v mir.Temp) uint32 {
	for _, b := range e.mp.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind == mir.KImm && in.Dsts[0] == v {
				return in.Val
			}
		}
	}
	return 0
}

// composite expands a multi-hop move along its cheapest path.
func (e *emitter) composite(m core.MoveRec, src, dst core.Loc) error {
	hops := append(append([]core.Bank{}, core.MovePath(m.From, m.To)...), m.To)
	curBank := m.From
	curReg := src.Reg
	for _, next := range hops {
		var nextReg int
		if next == m.To {
			nextReg = dst.Reg
		} else if next.IsXfer() {
			r, ok := e.asn.FreeXferReg(m.Point, next)
			if !ok {
				return fmt.Errorf("asm: no free %v register for spill traffic at point %d", next, m.Point)
			}
			nextReg = r
		}
		switch {
		case next == core.M:
			// Scratch store from an S register. A move that ENDS in M
			// uses the value's spill slot; a move merely transiting
			// memory uses the staging slot.
			slot := dst.Reg
			if m.To != core.M {
				slot = e.asn.TransitSlot()
			}
			e.emit(Instr{Op: OpWrite, Space: cps.SpaceScratch,
				Addr: Imm(e.prog.SpillBase + uint32(slot)), Base: curReg, Count: 1})
			nextReg = slot
		case curBank == core.M:
			// Scratch load into an L register; the slot is the value's
			// own when the move STARTS in M, else the staging slot.
			slot := src.Reg
			if m.From != core.M {
				slot = curReg
			}
			e.emit(Instr{Op: OpRead, Space: cps.SpaceScratch,
				Addr: Imm(e.prog.SpillBase + uint32(slot)), Base: nextReg, Count: 1})
		default:
			e.emit(Instr{Op: OpAlu, Alu: ast.OpAdd, Dst: Reg{next, nextReg},
				L: R(Reg{curBank, curReg}), R: Imm(0)})
		}
		curBank, curReg = next, nextReg
	}
	return nil
}
