// Package isel implements instruction selection: first-order CPS to
// the machine IR. Each CPS function becomes a chain of basic blocks
// (split at branches); constants that the IXP ALU cannot encode inline
// are materialized by immediate-load instructions (1 or 2 machine
// instructions depending on the value — see §12 of the paper on the
// cost of loading constants); shift amounts stay inline.
package isel

import (
	"repro/internal/ast"
	"repro/internal/cps"
	"repro/internal/mir"
)

// Select lowers p to MIR. The resulting flowgraph has one block per
// CPS function plus one per branch arm.
func Select(p *cps.Program) *mir.Program {
	s := &selector{
		cp:     p,
		mp:     &mir.Program{},
		temps:  make([]mir.Temp, p.NumVars()),
		blocks: make([]mir.BlockID, p.NumLabels()),
	}
	for i := range s.temps {
		s.temps[i] = -1
	}
	for i := range s.blocks {
		s.blocks[i] = -1
	}
	// Create the entry block first so it gets ID 0.
	s.blockFor(p.Entry)
	for len(s.work) > 0 {
		l := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.emitFun(l)
	}
	return s.mp
}

type selector struct {
	cp     *cps.Program
	mp     *mir.Program
	temps  []mir.Temp    // by cps.Var; -1 until first use
	blocks []mir.BlockID // by cps.Label; -1 until first jump
	work   []cps.Label
}

func (s *selector) temp(v cps.Var) mir.Temp {
	if t := s.temps[v]; t >= 0 {
		return t
	}
	t := s.mp.NewTemp(s.cp.VarName(v))
	s.temps[v] = t
	return t
}

func (s *selector) blockFor(l cps.Label) mir.BlockID {
	if id := s.blocks[l]; id >= 0 {
		return id
	}
	f := s.cp.Funs[l]
	b := s.mp.NewBlock(f.Name)
	for _, pv := range f.Params {
		b.Params = append(b.Params, s.temp(pv))
	}
	s.blocks[l] = b.ID
	s.work = append(s.work, l)
	return b.ID
}

func (s *selector) emitFun(l cps.Label) {
	f := s.cp.Funs[l]
	b := s.mp.Blocks[s.blocks[l]]
	s.emitTerm(b, f.Body, f.Name)
}

// operand converts a CPS value for edge-argument or halt positions,
// where immediates are legal.
func (s *selector) operand(v cps.Value) mir.Operand {
	switch v := v.(type) {
	case cps.Var:
		return mir.T(s.temp(v))
	case cps.Const:
		return mir.Imm(uint32(v))
	}
	panic("isel: bad value")
}

// regOperand converts a CPS value for a register-only position,
// materializing constants with an immediate load.
func (s *selector) regOperand(b *mir.Block, v cps.Value, name string) mir.Operand {
	switch v := v.(type) {
	case cps.Var:
		return mir.T(s.temp(v))
	case cps.Const:
		t := s.mp.NewTemp(name)
		b.Instrs = append(b.Instrs, mir.Instr{Kind: mir.KImm, Val: uint32(v), Dsts: []mir.Temp{t}})
		return mir.T(t)
	}
	panic("isel: bad value")
}

// ImmCost returns the number of machine instructions needed to load a
// 32-bit constant: one when the value fits in a (possibly shifted)
// 16-bit immediate, two otherwise.
func ImmCost(v uint32) int {
	if v&0xffff0000 == 0 || v&0x0000ffff == 0 {
		return 1
	}
	if v|0xffff0000 == v && int32(v) < 0 { // sign-extended low halfword
		return 1
	}
	return 2
}

func (s *selector) emitTerm(b *mir.Block, t cps.Term, name string) {
	for {
		switch tt := t.(type) {
		case *cps.Arith:
			l := s.regOperand(b, tt.L, "c")
			var r mir.Operand
			// Shift amounts are instruction fields on the IXP.
			if c, ok := tt.R.(cps.Const); ok && (tt.Op == ast.OpShl || tt.Op == ast.OpShr) {
				r = mir.Imm(uint32(c) & 31)
			} else {
				r = s.regOperand(b, tt.R, "c")
			}
			b.Instrs = append(b.Instrs, mir.Instr{
				Kind: mir.KALU, Op: tt.Op, Dsts: []mir.Temp{s.temp(tt.Dst)},
				Srcs: []mir.Operand{l, r},
			})
			t = tt.K
		case *cps.MemRead:
			addr := s.regOperand(b, tt.Addr, "addr")
			dsts := make([]mir.Temp, len(tt.Dsts))
			for i, d := range tt.Dsts {
				dsts[i] = s.temp(d)
			}
			b.Instrs = append(b.Instrs, mir.Instr{
				Kind: mir.KMemRead, Space: tt.Space, Dsts: dsts, Srcs: []mir.Operand{addr},
			})
			t = tt.K
		case *cps.MemWrite:
			addr := s.regOperand(b, tt.Addr, "addr")
			srcs := []mir.Operand{addr}
			for _, v := range tt.Srcs {
				srcs = append(srcs, s.regOperand(b, v, "st"))
			}
			b.Instrs = append(b.Instrs, mir.Instr{
				Kind: mir.KMemWrite, Space: tt.Space, Srcs: srcs,
			})
			t = tt.K
		case *cps.Special:
			var srcs []mir.Operand
			for _, a := range tt.Args {
				srcs = append(srcs, s.regOperand(b, a, "sp"))
			}
			dsts := make([]mir.Temp, len(tt.Dsts))
			for i, d := range tt.Dsts {
				dsts[i] = s.temp(d)
			}
			b.Instrs = append(b.Instrs, mir.Instr{
				Kind: mir.KSpecial, Special: tt.Kind, Dsts: dsts, Srcs: srcs,
			})
			t = tt.K
		case *cps.Clone:
			b.Instrs = append(b.Instrs, mir.Instr{
				Kind: mir.KClone, Dsts: []mir.Temp{s.temp(tt.Dst)},
				Srcs: []mir.Operand{mir.T(s.temp(tt.Src))},
			})
			t = tt.K
		case *cps.If:
			l := s.regOperand(b, tt.L, "c")
			var r mir.Operand
			// Comparison against zero uses the condition codes of the
			// preceding ALU op; other constants need a register.
			if c, ok := tt.R.(cps.Const); ok && c == 0 {
				r = mir.Imm(0)
			} else {
				r = s.regOperand(b, tt.R, "c")
			}
			thenB := s.mp.NewBlock(name + ".t")
			elseB := s.mp.NewBlock(name + ".f")
			b.Term = &mir.Branch{
				Cmp: tt.Cmp, L: l, R: r,
				Then: mir.Edge{To: thenB.ID},
				Else: mir.Edge{To: elseB.ID},
			}
			s.emitTerm(thenB, tt.Then, name+".t")
			s.emitTerm(elseB, tt.Else, name+".f")
			return
		case *cps.App:
			to := s.blockFor(tt.F)
			args := make([]mir.Operand, len(tt.Args))
			for i, a := range tt.Args {
				args[i] = s.operand(a)
			}
			b.Term = &mir.Jump{Edge: mir.Edge{To: to, Args: args}}
			return
		case *cps.Halt:
			rs := make([]mir.Operand, len(tt.Results))
			for i, r := range tt.Results {
				rs[i] = s.operand(r)
			}
			b.Term = &mir.Halt{Results: rs}
			return
		default:
			panic("isel: unknown term")
		}
	}
}
