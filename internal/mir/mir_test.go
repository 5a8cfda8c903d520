package mir_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/mir"
)

// buildDiamond constructs a small flowgraph by hand:
//
//	b0: x = imm; y = imm; br x<y -> b1 | b2
//	b1: z1 = x+y; jmp b3(z1)
//	b2: z2 = x-y; jmp b3(z2)
//	b3(p): halt(p)
func buildDiamond() (*mir.Program, mir.Temp, mir.Temp) {
	p := &mir.Program{}
	x := p.NewTemp("x")
	y := p.NewTemp("y")
	z1 := p.NewTemp("z1")
	z2 := p.NewTemp("z2")
	phi := p.NewTemp("phi")

	b0 := p.NewBlock("entry")
	b1 := p.NewBlock("then")
	b2 := p.NewBlock("else")
	b3 := p.NewBlock("join")

	b0.Instrs = []mir.Instr{
		{Kind: mir.KImm, Val: 1, Dsts: []mir.Temp{x}},
		{Kind: mir.KImm, Val: 2, Dsts: []mir.Temp{y}},
	}
	b0.Term = &mir.Branch{Cmp: ast.OpLt, L: mir.T(x), R: mir.T(y),
		Then: mir.Edge{To: b1.ID}, Else: mir.Edge{To: b2.ID}}
	b1.Instrs = []mir.Instr{{Kind: mir.KALU, Op: ast.OpAdd, Dsts: []mir.Temp{z1}, Srcs: []mir.Operand{mir.T(x), mir.T(y)}}}
	b1.Term = &mir.Jump{Edge: mir.Edge{To: b3.ID, Args: []mir.Operand{mir.T(z1)}}}
	b2.Instrs = []mir.Instr{{Kind: mir.KALU, Op: ast.OpSub, Dsts: []mir.Temp{z2}, Srcs: []mir.Operand{mir.T(x), mir.T(y)}}}
	b2.Term = &mir.Jump{Edge: mir.Edge{To: b3.ID, Args: []mir.Operand{mir.T(z2)}}}
	b3.Params = []mir.Temp{phi}
	b3.Term = &mir.Halt{Results: []mir.Operand{mir.T(phi)}}
	return p, x, y
}

// buildLoop constructs a counted loop whose bound n lives throughout:
//
//	b0(n): i0 = imm; jmp b1(i0)
//	b1(i): br i<n -> b2 | b3
//	b2: i2 = i+1; jmp b1(i2)
//	b3: halt(i)
func buildLoop() (p *mir.Program, n, i mir.Temp) {
	p = &mir.Program{}
	n = p.NewTemp("n")
	i0 := p.NewTemp("i0")
	i = p.NewTemp("i")
	i2 := p.NewTemp("i2")

	b0 := p.NewBlock("entry")
	b1 := p.NewBlock("head")
	b2 := p.NewBlock("body")
	b3 := p.NewBlock("exit")
	b0.Params = []mir.Temp{n}
	b0.Instrs = []mir.Instr{{Kind: mir.KImm, Val: 0, Dsts: []mir.Temp{i0}}}
	b0.Term = &mir.Jump{Edge: mir.Edge{To: b1.ID, Args: []mir.Operand{mir.T(i0)}}}
	b1.Params = []mir.Temp{i}
	b1.Term = &mir.Branch{Cmp: ast.OpLt, L: mir.T(i), R: mir.T(n),
		Then: mir.Edge{To: b2.ID}, Else: mir.Edge{To: b3.ID}}
	b2.Instrs = []mir.Instr{{Kind: mir.KALU, Op: ast.OpAdd, Dsts: []mir.Temp{i2},
		Srcs: []mir.Operand{mir.T(i), mir.Imm(1)}}}
	b2.Term = &mir.Jump{Edge: mir.Edge{To: b1.ID, Args: []mir.Operand{mir.T(i2)}}}
	b3.Term = &mir.Halt{Results: []mir.Operand{mir.T(i)}}
	return p, n, i
}

func TestLivenessDiamond(t *testing.T) {
	p, x, y := buildDiamond()
	lv := mir.ComputeLiveness(p)
	// x and y live out of the entry block (used in both arms).
	if !lv.Out[0].Has(x) || !lv.Out[0].Has(y) {
		t.Fatalf("entry live-out = %v", lv.Out[0].AppendTo(nil))
	}
	// Nothing live into the entry.
	if in := lv.In[0].AppendTo(nil); len(in) != 0 {
		t.Fatalf("entry live-in = %v", in)
	}
	// The join's parameter is not live into the join (it is defined
	// there); nothing else is live-in either.
	if in := lv.In[3].AppendTo(nil); len(in) != 0 {
		t.Fatalf("join live-in = %v", in)
	}
}

// TestLivenessUsesAreLive: for every instruction, its uses are in the
// live set immediately before it.
func TestLivenessUsesAreLive(t *testing.T) {
	p, _, _ := buildDiamond()
	lv := mir.ComputeLiveness(p)
	for _, b := range p.Blocks {
		live := lv.Points(b)
		for k, in := range b.Instrs {
			for _, s := range in.Srcs {
				if !s.IsImm && !live[k].Has(s.Temp) {
					t.Errorf("b%d/%d: use %s not live", b.ID, k, p.TempName(s.Temp))
				}
			}
		}
		for _, o := range b.TermUses() {
			if !o.IsImm && !live[len(b.Instrs)].Has(o.Temp) {
				t.Errorf("b%d terminator: use %s not live", b.ID, p.TempName(o.Temp))
			}
		}
	}
}

func TestProgramString(t *testing.T) {
	p, _, _ := buildDiamond()
	s := p.String()
	for _, frag := range []string{"b0 entry", "b3 join(phi)", "halt(phi)", "if x", "goto b3(z1)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, s)
		}
	}
	if NumInstrs := p.NumInstrs(); NumInstrs != 5 { // 4 instrs + branch
		t.Errorf("NumInstrs = %d, want 5", NumInstrs)
	}
}

// maxPressure is the largest number of temps live at once at any
// instruction boundary.
func maxPressure(p *mir.Program) int {
	lv := mir.ComputeLiveness(p)
	pr := 0
	for _, b := range p.Blocks {
		for _, s := range lv.Points(b) {
			pr = max(pr, len(s.AppendTo(nil)))
		}
	}
	return pr
}

func TestMaxPressureDiamond(t *testing.T) {
	p, _, _ := buildDiamond()
	if pr := maxPressure(p); pr != 2 {
		t.Errorf("max pressure = %d, want 2 (x and y)", pr)
	}
}

func TestLivenessLoop(t *testing.T) {
	p, n, i := buildLoop()
	lv := mir.ComputeLiveness(p)
	// n must be live around the whole loop.
	for _, id := range []mir.BlockID{1, 2} {
		if !lv.In[id].Has(n) {
			t.Errorf("n not live into b%d", id)
		}
	}
	// i is live into the loop body (used by the increment) and into
	// the exit (halt result).
	if !lv.In[2].Has(i) || !lv.In[3].Has(i) {
		t.Errorf("i liveness wrong: body=%v exit=%v", lv.In[2].AppendTo(nil), lv.In[3].AppendTo(nil))
	}
}
