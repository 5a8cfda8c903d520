package ixp

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
)

// bankRegs is the number of registers a thread holds per bank; a
// thread's registers are one flat array of core.NumBanks banks, so
// register (bank, idx) lives at bank*bankRegs+idx.
const bankRegs = 16

// opKind is what a decoded instruction does.
type opKind uint8

const (
	opALU      opKind = iota // regs[dst] = l <alu> r
	opImm                    // regs[dst] = l (an immediate), costing words cycles
	opFIFORead               // regs[xfer..] = rx[addr..]
	opMemRead                // regs[xfer..] = memory(space)[addr..]
	opTXWrite                // TX += regs[xfer..]
	opMemWrite               // memory(space)[addr..] = regs[xfer..]
	opHash                   // regs[dst] = hash(regs[xfer])
	opBTS                    // regs[dst] = SRAM[addr]; SRAM[addr] |= regs[xfer]
	opCSRRd                  // regs[dst] = CSR[addr]
	opCSRWr                  // CSR[addr] = regs[xfer]
	opCtxSwap                // yield for one cycle
	opBr                     // if l <alu> r, pc = target
	opJmp                    // pc = target
	opHalt                   // results = regs[results...]; stop
	opFail                   // fail the run with err
)

// operand is a decoded asm.Operand: an immediate value, or the flat
// index of a register.
type operand struct {
	imm bool
	val uint32
	reg int32
}

// op is one decoded instruction. Register references are flat indices
// into thread.regs, checked against the register file at decode, so
// execution needs no bank lookups and no range checks. Nothing from
// Config is folded in: latencies, BranchPenalty and SwapCost are read
// from the machine when the op runs, so one decoded program serves
// machines of any configuration, and a machine whose Config changes
// between runs.
type op struct {
	kind opKind
	// shared marks an op that touches state the engines of a chip
	// share (see Chip.Run).
	shared  bool
	alu     ast.BinOp
	space   cps.Space // memory space of opMemRead and opMemWrite
	l, r    operand
	addr    operand
	dst     int32 // flat destination register
	xfer    int32 // flat first transfer register
	count   int32 // transfer registers read or written
	target  int32 // branch target
	words   int64 // issue cost of opImm
	results []operand
	err     error // opFail's failure
}

// decode turns a program into ops, one per instruction plus a final
// opFail that catches a thread running off the end. An instruction
// naming a register outside the register file, a bad memory space or
// a branch target outside the program decodes to an opFail, so the
// run that reaches it fails with an error instead of crashing.
func decode(p *asm.Program) []op {
	code := make([]op, len(p.Instrs)+1)
	for pc := range p.Instrs {
		code[pc] = decodeInstr(&p.Instrs[pc], len(p.Instrs))
	}
	code[len(p.Instrs)] = op{kind: opFail, err: fmt.Errorf("ran past the end of the program")}
	return code
}

// decoder resolves one instruction's registers, remembering the first
// that is out of range.
type decoder struct{ err error }

// reg returns the flat index of r.
func (d *decoder) reg(r asm.Reg) int32 {
	if r.Bank < 0 || r.Bank >= core.NumBanks {
		d.fail(fmt.Errorf("register bank %d out of range", int(r.Bank)))
		return 0
	}
	if r.Idx < 0 || r.Idx >= bankRegs {
		d.fail(fmt.Errorf("register %v out of range", r))
		return 0
	}
	return int32(int(r.Bank)*bankRegs + r.Idx)
}

// xfer returns the flat index of the first of count consecutive
// registers of bank starting at base.
func (d *decoder) xfer(bank core.Bank, base, count int) int32 {
	for i := 0; i < count; i++ {
		d.reg(asm.Reg{Bank: bank, Idx: base + i})
	}
	return int32(int(bank)*bankRegs + base)
}

func (d *decoder) operand(o asm.Operand) operand {
	if o.IsImm {
		return operand{imm: true, val: o.Imm}
	}
	return operand{reg: d.reg(o.Reg)}
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// decodeInstr decodes one instruction of an n-instruction program.
func decodeInstr(in *asm.Instr, n int) op {
	var d decoder
	o := op{alu: in.Alu, space: in.Space, count: int32(max(in.Count, 0))}
	target := func() int32 {
		if in.Target < 0 || in.Target >= n {
			d.fail(fmt.Errorf("branch target %d out of range", in.Target))
		}
		return int32(in.Target)
	}
	switch in.Op {
	case asm.OpAlu:
		o.kind = opALU
		o.l, o.r, o.dst = d.operand(in.L), d.operand(in.R), d.reg(in.Dst)
	case asm.OpImm:
		o.kind = opImm
		o.l, o.dst, o.words = operand{imm: true, val: in.Val}, d.reg(in.Dst), int64(in.Words())
	case asm.OpRead:
		o.addr = d.operand(in.Addr)
		switch in.Space {
		case cps.SpaceRFIFO:
			o.kind, o.xfer = opFIFORead, d.xfer(core.L, in.Base, in.Count)
		case cps.SpaceSRAM, cps.SpaceScratch:
			o.kind, o.xfer = opMemRead, d.xfer(core.L, in.Base, in.Count)
		case cps.SpaceSDRAM:
			o.kind, o.xfer = opMemRead, d.xfer(core.LD, in.Base, in.Count)
		default:
			d.fail(fmt.Errorf("bad space %v", in.Space))
		}
	case asm.OpWrite:
		o.addr = d.operand(in.Addr)
		switch in.Space {
		case cps.SpaceTFIFO:
			o.kind, o.xfer = opTXWrite, d.xfer(core.S, in.Base, in.Count)
		case cps.SpaceSRAM, cps.SpaceScratch:
			o.kind, o.xfer = opMemWrite, d.xfer(core.S, in.Base, in.Count)
		case cps.SpaceSDRAM:
			o.kind, o.xfer = opMemWrite, d.xfer(core.SD, in.Base, in.Count)
		default:
			d.fail(fmt.Errorf("bad space %v", in.Space))
		}
	case asm.OpHash:
		o.kind = opHash
		o.xfer, o.dst = d.xfer(core.S, in.Base, 1), d.reg(asm.Reg{Bank: core.L, Idx: in.Dst.Idx})
	case asm.OpBTS:
		o.kind, o.addr = opBTS, d.operand(in.Addr)
		o.xfer, o.dst = d.xfer(core.S, in.Base, 1), d.reg(asm.Reg{Bank: core.L, Idx: in.Dst.Idx})
	case asm.OpCSRRd:
		o.kind, o.addr = opCSRRd, d.operand(in.Addr)
		o.dst = d.reg(asm.Reg{Bank: core.L, Idx: in.Dst.Idx})
	case asm.OpCSRWr:
		o.kind, o.addr = opCSRWr, d.operand(in.Addr)
		o.xfer = d.xfer(core.S, in.Base, 1)
	case asm.OpCtxSwap:
		o.kind = opCtxSwap
	case asm.OpBr:
		o.kind = opBr
		o.l, o.r, o.target = d.operand(in.L), d.operand(in.R), target()
	case asm.OpJmp:
		o.kind, o.target = opJmp, target()
	case asm.OpHalt:
		o.kind = opHalt
		o.results = make([]operand, len(in.Results))
		for i, r := range in.Results {
			o.results[i] = d.operand(r)
		}
	default:
		d.fail(fmt.Errorf("bad opcode %d", int(in.Op)))
	}
	if d.err != nil {
		return op{kind: opFail, err: d.err}
	}
	o.shared = sharedKind(o.kind)
	return o
}

// sharedKind reports whether ops of kind k touch state the engines of
// a chip share: a memory or CSR reference, or the hash unit. The RX and
// TX FIFOs are per-thread and per-engine, so FIFO references are
// engine-local, as are ALU, immediate, branch and context-swap ops.
func sharedKind(k opKind) bool {
	switch k {
	case opMemRead, opMemWrite, opHash, opBTS, opCSRRd, opCSRWr:
		return true
	}
	return false
}
