// Package asm emits fully physical IXP micro-engine assembly from an
// allocated MIR program: every operand is a concrete register of a
// concrete bank, inter-bank moves and spill code are explicit, and
// parallel move groups at a program point are sequentialized with the
// reserved A register breaking copy cycles.
package asm

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
	"repro/internal/isel"
)

// Reg is a physical register.
type Reg struct {
	Bank core.Bank
	Idx  int
}

// String returns the register's bank and index, as "A3" or "L0".
func (r Reg) String() string { return fmt.Sprintf("%v%d", r.Bank, r.Idx) }

// Operand is a register or an immediate.
type Operand struct {
	IsImm bool
	Imm   uint32
	Reg   Reg
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// Imm makes an immediate operand.
func Imm(v uint32) Operand { return Operand{IsImm: true, Imm: v} }

// String returns the register's name, or a hex immediate as "#0x1f".
func (o Operand) String() string {
	if o.IsImm {
		return fmt.Sprintf("#0x%x", o.Imm)
	}
	return o.Reg.String()
}

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	OpAlu     Op = iota // dst = l <binop> r
	OpImm               // dst = 32-bit constant (1 or 2 words)
	OpRead              // memory -> transfer registers
	OpWrite             // transfer registers -> memory
	OpHash              // L[dst] = hash(S[src]); same index
	OpBTS               // L[dst] = sram bit_test_set(addr, S[src])
	OpCSRRd             // L[dst] = csr[addr]
	OpCSRWr             // csr[addr] = S[src]
	OpCtxSwap           // voluntary context swap
	OpBr                // conditional branch
	OpJmp               // unconditional branch
	OpHalt              // end of program
)

var opNames = [...]string{"alu", "imm", "read", "write", "hash", "bts",
	"csr_rd", "csr_wr", "ctx_swap", "br", "jmp", "halt"}

// String returns the opcode's mnemonic, as "alu" or "csr_rd".
func (o Op) String() string { return opNames[o] }

// Instr is one machine instruction.
type Instr struct {
	Op      Op
	Alu     ast.BinOp // OpAlu, OpBr
	Dst     Reg
	L, R    Operand
	Val     uint32    // OpImm
	Space   cps.Space // OpRead/OpWrite
	Addr    Operand
	Base    int // first transfer register index of an aggregate
	Count   int
	Target  int // resolved instruction index (OpBr/OpJmp)
	Results []Operand
}

// Words returns the instruction-store words the instruction occupies.
func (in *Instr) Words() int {
	if in.Op == OpImm {
		return isel.ImmCost(in.Val)
	}
	return 1
}

// Program is an executable assembly program.
type Program struct {
	Instrs    []Instr
	SpillBase uint32 // scratch word address of spill slot 0
}

// CodeWords is the total instruction-store footprint.
func (p *Program) CodeWords() int {
	n := 0
	for i := range p.Instrs {
		n += p.Instrs[i].Words()
	}
	return n
}

// String returns the listing: one numbered instruction per line, in
// the Format of each.
func (p *Program) String() string {
	var b strings.Builder
	for i := range p.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", i, p.Format(&p.Instrs[i]))
	}
	return b.String()
}

// Format renders one instruction.
func (p *Program) Format(in *Instr) string {
	switch in.Op {
	case OpAlu:
		return fmt.Sprintf("%v = %v %v %v", in.Dst, in.L, in.Alu, in.R)
	case OpImm:
		return fmt.Sprintf("%v = imm 0x%x", in.Dst, in.Val)
	case OpRead:
		return fmt.Sprintf("read %v[%d] -> xfer %d..%d, addr %v",
			in.Space, in.Count, in.Base, in.Base+in.Count-1, in.Addr)
	case OpWrite:
		return fmt.Sprintf("write %v[%d] <- xfer %d..%d, addr %v",
			in.Space, in.Count, in.Base, in.Base+in.Count-1, in.Addr)
	case OpHash:
		return fmt.Sprintf("hash L%d = hash(S%d)", in.Dst.Idx, in.Base)
	case OpBTS:
		return fmt.Sprintf("bts L%d = bit_test_set(%v, S%d)", in.Dst.Idx, in.Addr, in.Base)
	case OpCSRRd:
		return fmt.Sprintf("csr_rd L%d = csr[%v]", in.Dst.Idx, in.Addr)
	case OpCSRWr:
		return fmt.Sprintf("csr_wr csr[%v] = S%d", in.Addr, in.Base)
	case OpCtxSwap:
		return "ctx_swap"
	case OpBr:
		return fmt.Sprintf("br %v %v %v -> %d", in.L, in.Alu, in.R, in.Target)
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Target)
	case OpHalt:
		parts := make([]string, len(in.Results))
		for i, r := range in.Results {
			parts[i] = r.String()
		}
		return "halt(" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}
