package cps

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/types"
)

// Machine is the reference memory model used to execute CPS programs
// directly. It is the oracle for differential tests: the same memory
// image can be given to the IXP simulator and the results compared.
type Machine struct {
	SRAM    []uint32
	SDRAM   []uint32
	Scratch []uint32
	CSR     map[uint32]uint32
	RFIFO   []uint32
	TFIFO   []uint32
	// Hash models the micro-engine hash unit. The default is a
	// multiplicative hash; the simulator uses the same function.
	Hash func(uint32) uint32

	// Stats
	Reads, Writes int
}

// NewMachine returns a machine with the given memory sizes (in words).
func NewMachine(sram, sdram, scratch int) *Machine {
	return &Machine{
		SRAM:    make([]uint32, sram),
		SDRAM:   make([]uint32, sdram),
		Scratch: make([]uint32, scratch),
		CSR:     map[uint32]uint32{},
		Hash:    DefaultHash,
	}
}

// DefaultHash is the hash-unit model shared by the evaluator and the
// simulator: a 48-bit-ish multiplicative mix truncated to 32 bits.
func DefaultHash(x uint32) uint32 {
	h := uint64(x) * 0x9e3779b97f4a7c15
	return uint32(h>>16) ^ uint32(h)
}

func (m *Machine) space(s Space) ([]uint32, error) {
	switch s {
	case SpaceSRAM:
		return m.SRAM, nil
	case SpaceSDRAM:
		return m.SDRAM, nil
	case SpaceScratch:
		return m.Scratch, nil
	}
	return nil, fmt.Errorf("cps eval: space %v is not random-access", s)
}

// EvalResult is the outcome of running a program.
type EvalResult struct {
	Results []uint32
	Steps   int
}

// Eval runs the program on m with the given entry arguments, returning
// the Halt results. It fails on unbound variables, bad addresses, or
// step-budget exhaustion (runaway loops).
func (p *Program) Eval(m *Machine, args []uint32, maxSteps int) (*EvalResult, error) {
	entry := p.EntryFun()
	if entry == nil {
		return nil, fmt.Errorf("cps eval: no entry function")
	}
	if len(args) != len(entry.Params) {
		return nil, fmt.Errorf("cps eval: entry takes %d args, got %d", len(entry.Params), len(args))
	}
	env := make(map[Var]uint32, 64)
	for i, v := range entry.Params {
		env[v] = args[i]
	}
	t := entry.Body
	steps := 0
	val := func(v Value) (uint32, error) {
		switch v := v.(type) {
		case Const:
			return uint32(v), nil
		case Var:
			x, ok := env[v]
			if !ok {
				return 0, fmt.Errorf("cps eval: unbound %s", p.VarName(v))
			}
			return x, nil
		}
		return 0, fmt.Errorf("cps eval: bad value %T", v)
	}
	for {
		steps++
		if steps > maxSteps {
			return nil, fmt.Errorf("cps eval: step budget %d exhausted", maxSteps)
		}
		switch tt := t.(type) {
		case *Arith:
			l, err := val(tt.L)
			if err != nil {
				return nil, err
			}
			r, err := val(tt.R)
			if err != nil {
				return nil, err
			}
			x, err := evalArith(tt.Op, l, r)
			if err != nil {
				return nil, err
			}
			env[tt.Dst] = x
			t = tt.K
		case *MemRead:
			mem, err := m.space(readSpace(tt.Space))
			if err != nil {
				return nil, err
			}
			a, err := val(tt.Addr)
			if err != nil {
				return nil, err
			}
			if tt.Space == SpaceRFIFO {
				for i, d := range tt.Dsts {
					idx := int(a) + i
					if idx >= len(m.RFIFO) {
						return nil, fmt.Errorf("cps eval: rfifo read %d beyond %d", idx, len(m.RFIFO))
					}
					env[d] = m.RFIFO[idx]
				}
				m.Reads++
				t = tt.K
				continue
			}
			if err := checkRange(tt.Space, a, len(tt.Dsts), len(mem)); err != nil {
				return nil, err
			}
			for i, d := range tt.Dsts {
				env[d] = mem[int(a)+i]
			}
			m.Reads++
			t = tt.K
		case *MemWrite:
			a, err := val(tt.Addr)
			if err != nil {
				return nil, err
			}
			if tt.Space == SpaceTFIFO {
				for _, s := range tt.Srcs {
					x, err := val(s)
					if err != nil {
						return nil, err
					}
					m.TFIFO = append(m.TFIFO, x)
				}
				m.Writes++
				t = tt.K
				continue
			}
			mem, err := m.space(tt.Space)
			if err != nil {
				return nil, err
			}
			if err := checkRange(tt.Space, a, len(tt.Srcs), len(mem)); err != nil {
				return nil, err
			}
			for i, s := range tt.Srcs {
				x, err := val(s)
				if err != nil {
					return nil, err
				}
				mem[int(a)+i] = x
			}
			m.Writes++
			t = tt.K
		case *Special:
			switch tt.Kind {
			case SpecHash:
				x, err := val(tt.Args[0])
				if err != nil {
					return nil, err
				}
				env[tt.Dsts[0]] = m.Hash(x)
			case SpecBTS:
				a, err := val(tt.Args[0])
				if err != nil {
					return nil, err
				}
				s, err := val(tt.Args[1])
				if err != nil {
					return nil, err
				}
				if int(a) >= len(m.SRAM) {
					return nil, fmt.Errorf("cps eval: bts address %d out of range", a)
				}
				old := m.SRAM[a]
				m.SRAM[a] = old | s
				env[tt.Dsts[0]] = old
			case SpecCSRRead:
				a, err := val(tt.Args[0])
				if err != nil {
					return nil, err
				}
				env[tt.Dsts[0]] = m.CSR[a]
			case SpecCSRWrite:
				a, err := val(tt.Args[0])
				if err != nil {
					return nil, err
				}
				x, err := val(tt.Args[1])
				if err != nil {
					return nil, err
				}
				m.CSR[a] = x
			case SpecCtxSwap:
				// No observable effect in the reference semantics.
			}
			t = tt.K
		case *Clone:
			x, err := val(tt.Src)
			if err != nil {
				return nil, err
			}
			env[tt.Dst] = x
			t = tt.K
		case *If:
			l, err := val(tt.L)
			if err != nil {
				return nil, err
			}
			r, err := val(tt.R)
			if err != nil {
				return nil, err
			}
			if types.EvalCmp(tt.Cmp, l, r) {
				t = tt.Then
			} else {
				t = tt.Else
			}
		case *App:
			f := p.Funs[tt.F]
			if f == nil {
				return nil, fmt.Errorf("cps eval: undefined label L%d", tt.F)
			}
			if len(tt.Args) != len(f.Params) {
				return nil, fmt.Errorf("cps eval: L%d %s takes %d args, got %d",
					f.Label, f.Name, len(f.Params), len(tt.Args))
			}
			vals := make([]uint32, len(tt.Args))
			for i, a := range tt.Args {
				x, err := val(a)
				if err != nil {
					return nil, err
				}
				vals[i] = x
			}
			for i, pv := range f.Params {
				env[pv] = vals[i]
			}
			t = f.Body
		case *Halt:
			out := make([]uint32, len(tt.Results))
			for i, r := range tt.Results {
				x, err := val(r)
				if err != nil {
					return nil, err
				}
				out[i] = x
			}
			return &EvalResult{Results: out, Steps: steps}, nil
		default:
			return nil, fmt.Errorf("cps eval: unknown term %T", t)
		}
	}
}

func readSpace(s Space) Space {
	if s == SpaceRFIFO {
		return SpaceSRAM // placeholder; handled separately
	}
	return s
}

func checkRange(s Space, addr uint32, n, size int) error {
	if s == SpaceSDRAM && addr%2 != 0 {
		return fmt.Errorf("cps eval: sdram access at odd word address %d (8-byte alignment)", addr)
	}
	if int(addr)+n > size {
		return fmt.Errorf("cps eval: %v access [%d,%d) beyond size %d", s, addr, int(addr)+n, size)
	}
	return nil
}

func evalArith(op ast.BinOp, l, r uint32) (uint32, error) {
	if v, ok := types.EvalBinop(op, l, r); ok {
		return v, nil
	}
	return 0, fmt.Errorf("cps eval: bad arithmetic %v (division by zero or non-word op)", op)
}
