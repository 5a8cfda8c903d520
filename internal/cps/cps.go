// Package cps defines the continuation-passing-style intermediate
// representation of the Nova compiler (§4 of the paper).
//
// The IR is first-order: CPS conversion resolves every call target to a
// known label by inlining all non-tail calls (de-proceduralization,
// §4.3) and specializing tail-called functions per instantiation of
// their label-valued parameters (return continuations, exception
// handlers, and function arguments). Every variable is bound exactly
// once (SSA by construction, §4.2) — CPS expresses SSA directly, with
// continuation parameters playing the role of phi-nodes.
//
// The IR has no aggregate values: records and tuples were flattened by
// the converter; every variable corresponds to a single machine word.
package cps

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Var is a CPS temporary. Each Var is bound exactly once.
type Var int

// Label names a function or continuation.
type Label int

// Value is an operand: a Var or a Const.
type Value interface{ value() }

// Const is an immediate 32-bit word.
type Const uint32

func (Var) value()   {}
func (Const) value() {}

// Space identifies a memory or I/O space for aggregate transfers.
type Space int

// Memory spaces. SRAM and Scratch move data through the L (read) and
// S (write) transfer banks; SDRAM through LD and SD; the FIFOs behave
// like their respective memory classes.
const (
	SpaceSRAM Space = iota
	SpaceSDRAM
	SpaceScratch
	SpaceRFIFO
	SpaceTFIFO
)

var spaceNames = [...]string{"sram", "sdram", "scratch", "rfifo", "tfifo"}

// String returns the space's name as the printer writes it.
func (s Space) String() string { return spaceNames[s] }

// SpecialKind identifies a non-memory hardware operation.
type SpecialKind int

// Special operations.
const (
	SpecHash     SpecialKind = iota // dst(L) = hash(src(S)); same register number
	SpecBTS                         // dst(L) = bit_test_set(addr, src(S)); same register number
	SpecCSRRead                     // dst(L) = csr(addr)
	SpecCSRWrite                    // csr(addr) = src(S)
	SpecCtxSwap                     // voluntary context swap
)

var specialNames = [...]string{"hash", "bts", "csr_rd", "csr_wr", "ctx_swap"}

// String returns the operation's name as the printer writes it.
func (k SpecialKind) String() string { return specialNames[k] }

// Term is the body of a CPS function: a tree of bindings ending in a
// transfer of control.
type Term interface{ term() }

// Arith binds Dst to a word operation: dst = l op r.
type Arith struct {
	Op   ast.BinOp
	L, R Value
	Dst  Var
	K    Term
}

// MemRead reads an aggregate of len(Dsts) consecutive words from
// memory into the read-side transfer bank of Space.
type MemRead struct {
	Space Space
	Addr  Value
	Dsts  []Var
	K     Term
}

// MemWrite writes an aggregate of len(Srcs) consecutive words from the
// write-side transfer bank of Space to memory.
type MemWrite struct {
	Space Space
	Addr  Value
	Srcs  []Value
	K     Term
}

// Special performs a non-memory hardware operation.
type Special struct {
	Kind SpecialKind
	Args []Value
	Dsts []Var
	K    Term
}

// Clone binds Dst as a clone of Src (§4.5, §10): semantically a copy,
// but clones of the same variable do not interfere, so the register
// allocator may — but need not — give them distinct locations.
type Clone struct {
	Src Var
	Dst Var
	K   Term
}

// If branches on a word comparison. Cmp is one of the comparison
// operators; booleans are encoded as control flow (§4.1).
type If struct {
	Cmp  ast.BinOp
	L, R Value
	Then Term
	Else Term
}

// App transfers control to a known label, binding its parameters to
// Args. This is the only form of call or jump.
type App struct {
	F    Label
	Args []Value
}

// Halt ends the program, yielding Results.
type Halt struct {
	Results []Value
}

func (*Arith) term()    {}
func (*MemRead) term()  {}
func (*MemWrite) term() {}
func (*Special) term()  {}
func (*Clone) term()    {}
func (*If) term()       {}
func (*App) term()      {}
func (*Halt) term()     {}

// FunKind distinguishes source functions from compiler-introduced
// continuations in diagnostics.
type FunKind int

// Function kinds.
const (
	KindFun  FunKind = iota // instantiation of a source function
	KindCont                // join point / return continuation
	KindLoop                // loop header
)

// Fun is one first-order CPS function.
type Fun struct {
	Label  Label
	Name   string
	Kind   FunKind
	Params []Var
	Body   Term
}

// Program is a whole CPS program. Vars and labels are dense: passes
// index per-variable and per-label tables by them, sized from NumVars
// and NumLabels.
type Program struct {
	// Funs is indexed by Label; the entry is nil for a label with no
	// function, or whose function was deleted.
	Funs  []*Fun
	Entry Label
	names []string // debug names, indexed by Var
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// NewVar allocates a fresh temporary with a debug name.
func (p *Program) NewVar(name string) Var {
	p.names = append(p.names, name)
	return Var(len(p.names) - 1)
}

// NewLabel allocates a fresh label with no function yet.
func (p *Program) NewLabel() Label {
	p.Funs = append(p.Funs, nil)
	return Label(len(p.Funs) - 1)
}

// NumVars returns the number of variables allocated so far; every Var
// is below it.
func (p *Program) NumVars() int { return len(p.names) }

// NumLabels returns the number of labels allocated so far; every Label
// is below it.
func (p *Program) NumLabels() int { return len(p.Funs) }

// EntryFun returns the entry function, or nil when there is none.
func (p *Program) EntryFun() *Fun {
	if int(p.Entry) < len(p.Funs) {
		return p.Funs[p.Entry]
	}
	return nil
}

// VarName returns the debug name of v.
func (p *Program) VarName(v Var) string {
	if p.names[v] != "" {
		return fmt.Sprintf("%s.%d", p.names[v], v)
	}
	return fmt.Sprintf("t%d", v)
}

// AddFun registers f.
func (p *Program) AddFun(f *Fun) { p.Funs[f.Label] = f }

// FormatValue renders an operand.
func (p *Program) FormatValue(v Value) string {
	switch v := v.(type) {
	case Var:
		return p.VarName(v)
	case Const:
		if v > 9 {
			return fmt.Sprintf("0x%x", uint32(v))
		}
		return fmt.Sprintf("%d", uint32(v))
	}
	return "?"
}

func (p *Program) formatValues(vs []Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = p.FormatValue(v)
	}
	return strings.Join(parts, ", ")
}

func (p *Program) formatVars(vs []Var) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = p.VarName(v)
	}
	return strings.Join(parts, ", ")
}

// String renders the whole program in a readable form, entry first,
// then remaining functions in label order.
func (p *Program) String() string {
	var b strings.Builder
	if f := p.EntryFun(); f != nil {
		p.writeFun(&b, f)
	}
	for l, f := range p.Funs {
		if f != nil && Label(l) != p.Entry {
			p.writeFun(&b, f)
		}
	}
	return b.String()
}

func (p *Program) writeFun(b *strings.Builder, f *Fun) {
	fmt.Fprintf(b, "L%d %s(%s):\n", f.Label, f.Name, p.formatVars(f.Params))
	p.writeTerm(b, f.Body, 1)
}

func indent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("  ")
	}
}

func (p *Program) writeTerm(b *strings.Builder, t Term, depth int) {
	indent(b, depth)
	switch t := t.(type) {
	case *Arith:
		fmt.Fprintf(b, "%s = %s %s %s\n", p.VarName(t.Dst),
			p.FormatValue(t.L), t.Op, p.FormatValue(t.R))
		p.writeTerm(b, t.K, depth)
	case *MemRead:
		fmt.Fprintf(b, "(%s) = %s[%d](%s)\n", p.formatVars(t.Dsts),
			t.Space, len(t.Dsts), p.FormatValue(t.Addr))
		p.writeTerm(b, t.K, depth)
	case *MemWrite:
		fmt.Fprintf(b, "%s(%s) <- (%s)\n", t.Space,
			p.FormatValue(t.Addr), p.formatValues(t.Srcs))
		p.writeTerm(b, t.K, depth)
	case *Special:
		fmt.Fprintf(b, "(%s) = %s(%s)\n", p.formatVars(t.Dsts),
			t.Kind, p.formatValues(t.Args))
		p.writeTerm(b, t.K, depth)
	case *Clone:
		fmt.Fprintf(b, "%s = clone(%s)\n", p.VarName(t.Dst), p.VarName(t.Src))
		p.writeTerm(b, t.K, depth)
	case *If:
		fmt.Fprintf(b, "if %s %s %s\n", p.FormatValue(t.L), t.Cmp, p.FormatValue(t.R))
		indent(b, depth)
		b.WriteString("then:\n")
		p.writeTerm(b, t.Then, depth+1)
		indent(b, depth)
		b.WriteString("else:\n")
		p.writeTerm(b, t.Else, depth+1)
	case *App:
		fmt.Fprintf(b, "goto L%d(%s)\n", t.F, p.formatValues(t.Args))
	case *Halt:
		fmt.Fprintf(b, "halt(%s)\n", p.formatValues(t.Results))
	default:
		fmt.Fprintf(b, "?%T\n", t)
	}
}

// Walk calls f on slot and then on every term slot below it, in
// pre-order: a binding before its continuation, an If before its Then
// arm and the Then arm before the Else arm. f may replace *slot; Walk
// then descends into the replacement's children.
func Walk(slot *Term, f func(*Term)) {
	for {
		f(slot)
		switch t := (*slot).(type) {
		case *Arith:
			slot = &t.K
		case *MemRead:
			slot = &t.K
		case *MemWrite:
			slot = &t.K
		case *Special:
			slot = &t.K
		case *Clone:
			slot = &t.K
		case *If:
			Walk(&t.Then, f)
			slot = &t.Else
		default:
			return
		}
	}
}

// Cont returns the linear continuation of a binding term, or nil for
// control terms.
func Cont(t Term) Term {
	switch t := t.(type) {
	case *Arith:
		return t.K
	case *MemRead:
		return t.K
	case *MemWrite:
		return t.K
	case *Special:
		return t.K
	case *Clone:
		return t.K
	}
	return nil
}

// SetCont replaces the linear continuation of a binding term.
func SetCont(t Term, k Term) {
	switch t := t.(type) {
	case *Arith:
		t.K = k
	case *MemRead:
		t.K = k
	case *MemWrite:
		t.K = k
	case *Special:
		t.K = k
	case *Clone:
		t.K = k
	default:
		panic(fmt.Sprintf("cps: SetCont on control term %T", t))
	}
}

// Defs returns the variables bound by one binding term.
func Defs(t Term) []Var {
	switch t := t.(type) {
	case *Arith:
		return []Var{t.Dst}
	case *MemRead:
		return t.Dsts
	case *Special:
		return t.Dsts
	case *Clone:
		return []Var{t.Dst}
	}
	return nil
}

// Uses returns the operand values of a term (not recursing into
// continuations).
func Uses(t Term) []Value {
	switch t := t.(type) {
	case *Arith:
		return []Value{t.L, t.R}
	case *MemRead:
		return []Value{t.Addr}
	case *MemWrite:
		return append([]Value{t.Addr}, t.Srcs...)
	case *Special:
		return t.Args
	case *Clone:
		return []Value{t.Src}
	case *If:
		return []Value{t.L, t.R}
	case *App:
		return t.Args
	case *Halt:
		return t.Results
	}
	return nil
}
