// Package mir defines the machine-level intermediate representation
// produced by instruction selection: a flowgraph of basic blocks over
// virtual temporaries, where every instruction is characterized by the
// resources it requires and defines (§5.2 of the paper) — the operand
// classes DefABW, Arith, DefL_i, UseS_i, DefLD_j, UseSD_j, SameReg,
// and Clone that drive the ILP model.
package mir

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/cps"
)

// Temp is a virtual register. Temporaries are in SSA form: each is
// defined exactly once (block parameters are the phi-equivalents).
type Temp int

// BlockID indexes Program.Blocks.
type BlockID int

// Operand is a temp or an inline immediate (shift amounts only; other
// constants are materialized by Imm instructions).
type Operand struct {
	IsImm bool
	Imm   uint32
	Temp  Temp
}

// T makes a temp operand.
func T(t Temp) Operand { return Operand{Temp: t} }

// Imm makes an immediate operand.
func Imm(v uint32) Operand { return Operand{IsImm: true, Imm: v} }

// Kind classifies an instruction.
type Kind int

// Instruction kinds.
const (
	KALU      Kind = iota // dst = src1 op src2; dst in {A,B,S,SD}, srcs in {A,B,L,LD}
	KImm                  // dst = constant; 1 or 2 machine instructions by value
	KMemRead              // aggregate read: dsts are consecutive L (or LD) registers
	KMemWrite             // aggregate write: srcs are consecutive S (or SD) registers
	KSpecial              // hash/bts/csr/ctx_swap
	KClone                // dst = clone(src); no code if allocated together
	KMove                 // dst = src; inserted by the allocator (inter-bank moves)
)

var kindNames = [...]string{"alu", "imm", "read", "write", "special", "clone", "move"}

// String returns the kind's short name, as "alu" or "clone".
func (k Kind) String() string { return kindNames[k] }

// Instr is one machine-level instruction.
type Instr struct {
	Kind    Kind
	Op      ast.BinOp       // KALU
	Val     uint32          // KImm
	Space   cps.Space       // KMemRead / KMemWrite
	Special cps.SpecialKind // KSpecial
	Dsts    []Temp
	Srcs    []Operand
}

// Edge is one control transfer with its parameter bindings: Args[i]
// flows into the target block's Params[i].
type Edge struct {
	To   BlockID
	Args []Operand
}

// Terminator ends a block.
type Terminator interface{ term() }

// Jump transfers unconditionally.
type Jump struct{ Edge Edge }

// Branch transfers on a word comparison. The comparison itself costs
// an ALU instruction; its operands obey the Arith operand class.
type Branch struct {
	Cmp  ast.BinOp
	L, R Operand
	Then Edge
	Else Edge
}

// Halt ends the program; results must be in readable banks.
type Halt struct{ Results []Operand }

func (*Jump) term()   {}
func (*Branch) term() {}
func (*Halt) term()   {}

// Block is a basic block with SSA-style parameters.
type Block struct {
	ID     BlockID
	Name   string
	Params []Temp
	Instrs []Instr
	Term   Terminator
}

// Program is a whole MIR program. Blocks[0] is the entry.
type Program struct {
	Blocks []*Block
	names  []string
}

// NewTemp allocates a fresh temporary.
func (p *Program) NewTemp(name string) Temp {
	t := Temp(len(p.names))
	p.names = append(p.names, name)
	return t
}

// NumTemps returns the number of temporaries allocated.
func (p *Program) NumTemps() int { return len(p.names) }

// TempName returns a debug name.
func (p *Program) TempName(t Temp) string {
	if int(t) < len(p.names) && p.names[t] != "" {
		return p.names[t]
	}
	return fmt.Sprintf("t%d", t)
}

// NewBlock appends an empty block.
func (p *Program) NewBlock(name string) *Block {
	b := &Block{ID: BlockID(len(p.Blocks)), Name: name}
	p.Blocks = append(p.Blocks, b)
	return b
}

// Succs returns the outgoing edges of b.
func (b *Block) Succs() []Edge {
	switch t := b.Term.(type) {
	case *Jump:
		return []Edge{t.Edge}
	case *Branch:
		return []Edge{t.Then, t.Else}
	}
	return nil
}

// TermUses returns the operands read by the terminator itself
// (branch comparison operands and halt results), excluding edge args.
func (b *Block) TermUses() []Operand {
	switch t := b.Term.(type) {
	case *Branch:
		return []Operand{t.L, t.R}
	case *Halt:
		return t.Results
	}
	return nil
}

// NumInstrs counts instructions over all blocks (terminators included
// for Branch, which costs a comparison).
func (p *Program) NumInstrs() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
		if _, ok := b.Term.(*Branch); ok {
			n++
		}
	}
	return n
}

// String renders the program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, b := range p.Blocks {
		params := make([]string, len(b.Params))
		for i, t := range b.Params {
			params[i] = p.TempName(t)
		}
		fmt.Fprintf(&sb, "b%d %s(%s):\n", b.ID, b.Name, strings.Join(params, ", "))
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", p.FormatInstr(&b.Instrs[i]))
		}
		fmt.Fprintf(&sb, "  %s\n", p.formatTerm(b.Term))
	}
	return sb.String()
}

// FormatInstr renders one instruction.
func (p *Program) FormatInstr(in *Instr) string {
	dsts := make([]string, len(in.Dsts))
	for i, d := range in.Dsts {
		dsts[i] = p.TempName(d)
	}
	srcs := make([]string, len(in.Srcs))
	for i, s := range in.Srcs {
		srcs[i] = p.formatOperand(s)
	}
	switch in.Kind {
	case KALU:
		return fmt.Sprintf("%s = %s %v %s", dsts[0], srcs[0], in.Op, srcs[1])
	case KImm:
		return fmt.Sprintf("%s = imm 0x%x", dsts[0], in.Val)
	case KMemRead:
		return fmt.Sprintf("(%s) = %v[%d](%s)", strings.Join(dsts, ", "), in.Space, len(in.Dsts), srcs[0])
	case KMemWrite:
		return fmt.Sprintf("%v(%s) <- (%s)", in.Space, srcs[0], strings.Join(srcs[1:], ", "))
	case KSpecial:
		return fmt.Sprintf("(%s) = %v(%s)", strings.Join(dsts, ", "), in.Special, strings.Join(srcs, ", "))
	case KClone:
		return fmt.Sprintf("%s = clone(%s)", dsts[0], srcs[0])
	case KMove:
		return fmt.Sprintf("%s = move(%s)", dsts[0], srcs[0])
	}
	return "?"
}

func (p *Program) formatOperand(o Operand) string {
	if o.IsImm {
		return fmt.Sprintf("#%d", o.Imm)
	}
	return p.TempName(o.Temp)
}

func (p *Program) formatEdge(e Edge) string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = p.formatOperand(a)
	}
	return fmt.Sprintf("b%d(%s)", e.To, strings.Join(args, ", "))
}

func (p *Program) formatTerm(t Terminator) string {
	switch t := t.(type) {
	case *Jump:
		return "goto " + p.formatEdge(t.Edge)
	case *Branch:
		return fmt.Sprintf("if %s %v %s then %s else %s",
			p.formatOperand(t.L), t.Cmp, p.formatOperand(t.R),
			p.formatEdge(t.Then), p.formatEdge(t.Else))
	case *Halt:
		rs := make([]string, len(t.Results))
		for i, r := range t.Results {
			rs[i] = p.formatOperand(r)
		}
		return fmt.Sprintf("halt(%s)", strings.Join(rs, ", "))
	}
	return "?"
}
