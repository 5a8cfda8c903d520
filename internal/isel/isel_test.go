package isel

import (
	"math/rand"
	"testing"

	"repro/internal/cps"
	"repro/internal/mir"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/ssu"
	"repro/internal/types"
)

// pipeline runs src through parse/check/convert/optimize/ssu/select.
func pipeline(t *testing.T, src string) (*cps.Program, *mir.Program) {
	t.Helper()
	f := source.NewFile("t.nova", src)
	errs := source.NewErrorList(f)
	prog := parser.Parse(f, errs)
	if errs.HasErrors() {
		t.Fatalf("parse: %v", errs)
	}
	info := types.Check(prog, errs)
	if errs.HasErrors() {
		t.Fatalf("check: %v", errs)
	}
	p := cps.Convert(info, "main", errs)
	if errs.HasErrors() {
		t.Fatalf("convert: %v", errs)
	}
	opt.Optimize(p)
	ssu.Transform(p)
	m := Select(p)
	return p, m
}

// differential runs the CPS and MIR programs on identical machines and
// compares results and memory.
func differential(t *testing.T, src string, argsets [][]uint32, init func(*cps.Machine)) {
	t.Helper()
	cp, mp := pipeline(t, src)
	for _, args := range argsets {
		m1 := cps.NewMachine(2048, 2048, 256)
		m2 := cps.NewMachine(2048, 2048, 256)
		if init != nil {
			init(m1)
			init(m2)
		}
		r1, err := cp.Eval(m1, args, 2_000_000)
		if err != nil {
			t.Fatalf("cps eval: %v", err)
		}
		r2, err := mp.Eval(m2, args, 2_000_000)
		if err != nil {
			t.Fatalf("mir eval: %v\n%s", err, mp)
		}
		if len(r1.Results) != len(r2) {
			t.Fatalf("arity: cps %v, mir %v", r1.Results, r2)
		}
		for i := range r2 {
			if r1.Results[i] != r2[i] {
				t.Fatalf("args %v result[%d]: cps %d, mir %d\n%s", args, i, r1.Results[i], r2[i], mp)
			}
		}
		for i := range m1.SRAM {
			if m1.SRAM[i] != m2.SRAM[i] {
				t.Fatalf("sram[%d]: cps %d, mir %d", i, m1.SRAM[i], m2.SRAM[i])
			}
		}
		for i := range m1.SDRAM {
			if m1.SDRAM[i] != m2.SDRAM[i] {
				t.Fatalf("sdram[%d] differs", i)
			}
		}
	}
}

func TestSimpleLowering(t *testing.T) {
	differential(t, `fun main(a: word, b: word) -> word { (a + b) * 2 - (a & b) }`,
		[][]uint32{{7, 9}, {0, 0}, {0xffffffff, 1}}, nil)
}

func TestBranchesAndLoops(t *testing.T) {
	differential(t, `
fun main(n: word) -> word {
  let acc = 0;
  while (n > 0) {
    let acc = if (n % 2 == 0) acc + n else acc;
    let n = n - 1;
  }
  acc
}`, [][]uint32{{0}, {1}, {10}, {37}}, nil)
}

func TestMemoryLowering(t *testing.T) {
	differential(t, `
fun main() -> word {
  let (a, b, c, d) = sram[4](100);
  let (e, f, g, h, i, j) = sram[6](200);
  let u = a + c;
  let v = g + h;
  sram(300) <- (b, e, v, u);
  sram(500) <- (f, j, d, i);
  u + v
}`, [][]uint32{{}}, func(m *cps.Machine) {
		rng := rand.New(rand.NewSource(7))
		for i := range m.SRAM {
			m.SRAM[i] = rng.Uint32()
		}
	})
}

func TestUnpackLowering(t *testing.T) {
	differential(t, `
layout h = { version : 4, priority : 4, flow : 24 };
fun main(w: word) -> word {
  let u = unpack[h]((w));
  u.version * 1000 + u.priority * 100 + u.flow
}`, [][]uint32{{0x65000123}, {0}, {0xffffffff}}, nil)
}

func TestImmediatesMaterialized(t *testing.T) {
	_, mp := pipeline(t, `fun main(a: word) -> word { a + 0x12345678 }`)
	// The 32-bit constant cannot be an inline ALU operand.
	found := false
	for _, b := range mp.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == mir.KImm && in.Val == 0x12345678 {
				found = true
			}
			if in.Kind == mir.KALU {
				for _, s := range in.Srcs {
					if s.IsImm && in.Op != 0 {
						// Only shifts may keep immediates; op Add=0 is
						// checked via the found flag.
					}
				}
			}
		}
	}
	if !found {
		t.Fatalf("constant not materialized:\n%s", mp)
	}
}

func TestShiftKeepsImmediate(t *testing.T) {
	_, mp := pipeline(t, `fun main(a: word) -> word { a << 5 }`)
	for _, b := range mp.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == mir.KImm {
				t.Fatalf("shift amount needlessly materialized:\n%s", mp)
			}
		}
	}
}

func TestImmCost(t *testing.T) {
	cases := []struct {
		v    uint32
		want int
	}{
		{0, 1}, {0xffff, 1}, {0x10000, 1}, {0xffff0000, 1},
		{0x12345678, 2}, {0x00010001, 2},
	}
	for _, tc := range cases {
		if got := ImmCost(tc.v); got != tc.want {
			t.Errorf("ImmCost(%#x) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestSSUProperty: after the SSU transform, every write-side operand
// variable has exactly one non-clone use in the program.
func TestSSUProperty(t *testing.T) {
	srcs := []string{
		// x used in two stores at different positions (§2.1's example).
		`fun main(x: word, u: word, v: word, w2: word, a: word, b: word, c: word) {
  sram(100) <- (u, v, x, w2);
  sram(200) <- (a, x, b, c);
}`,
		// x stored and also used in arithmetic.
		`fun main(x: word) -> word {
  sram(10) <- x;
  x + 1
}`,
		// hash source also stored.
		`fun main(x: word) -> word {
  let h = hash(x);
  sram(20) <- x;
  h
}`,
	}
	for _, src := range srcs {
		cp, _ := pipeline(t, src)
		uses := map[cps.Var]int{}
		writes := map[cps.Var]int{}
		var walk func(t cps.Term)
		walk = func(t cps.Term) {
			if t == nil {
				return
			}
			if _, ok := t.(*cps.Clone); !ok {
				for _, v := range cps.Uses(t) {
					if vv, ok := v.(cps.Var); ok {
						uses[vv]++
					}
				}
			}
			switch tt := t.(type) {
			case *cps.MemWrite:
				for _, s := range tt.Srcs {
					if vv, ok := s.(cps.Var); ok {
						writes[vv]++
					}
				}
			case *cps.Special:
				var slot cps.Value
				switch tt.Kind {
				case cps.SpecHash:
					slot = tt.Args[0]
				case cps.SpecBTS, cps.SpecCSRWrite:
					slot = tt.Args[1]
				}
				if vv, ok := slot.(cps.Var); ok {
					writes[vv]++
				}
			case *cps.If:
				walk(tt.Then)
				walk(tt.Else)
				return
			}
			walk(cps.Cont(t))
		}
		for _, f := range cp.Funs {
			if f != nil {
				walk(f.Body)
			}
		}
		for v, n := range writes {
			if n > 0 && uses[v] != 1 {
				t.Errorf("src %q: write operand %s has %d non-clone uses, want 1",
					src[:30], cp.VarName(v), uses[v])
			}
		}
	}
}

// TestSSUSemanticsPreserved: cloning must not change behavior.
func TestSSUSemanticsPreserved(t *testing.T) {
	differential(t, `
fun main(x: word, a: word, b: word) -> word {
  sram(100) <- (a, b, x, x);
  sram(200) <- (x, a, b, x);
  x + a
}`, [][]uint32{{1, 2, 3}, {0xdead, 0xbeef, 42}}, nil)
}

// TestFigure4Cloning reproduces the shape of Figure 4: one variable
// used by an SDRAM write and other contexts gets clones.
func TestFigure4Cloning(t *testing.T) {
	f := source.NewFile("t.nova", `
fun main(z: word, a: word) -> word {
  sdram(0) <- (z, a);
  sram(10) <- z;
  z + 1
}`)
	errs := source.NewErrorList(f)
	prog := parser.Parse(f, errs)
	info := types.Check(prog, errs)
	p := cps.Convert(info, "main", errs)
	if errs.HasErrors() {
		t.Fatalf("%v", errs)
	}
	opt.Optimize(p)
	st := ssu.Transform(p)
	if st.Clones < 2 {
		t.Fatalf("expected >= 2 clones for z (sdram, sram uses + arith), got %d\n%s", st.Clones, p)
	}
}

func TestHashSameRegLowering(t *testing.T) {
	differential(t, `
fun main(x: word) -> (word, word) {
  let h = hash(x);
  let old = sram_bts(50, 0x4);
  (h, old)
}`, [][]uint32{{42}, {0}}, func(m *cps.Machine) {
		m.SRAM[50] = 3
	})
}

func TestExceptionsLowering(t *testing.T) {
	differential(t, `
fun main(a: word) -> word {
  try {
    if (a > 100) { raise Big(a) };
    a * 2
  } handle Big (w: word) { w - 100 }
}`, [][]uint32{{3}, {250}}, nil)
}

func TestBlockParamsRenaming(t *testing.T) {
	// A loop whose carried variable changes banks would exercise the
	// renaming edges; here we only verify behavior.
	differential(t, `
fun main(n: word) -> word {
  let x = 1;
  let y = 2;
  while (n > 0) {
    let x = y;
    let y = x + y;
    let n = n - 1;
  }
  x * 100 + y
}`, [][]uint32{{0}, {1}, {5}}, nil)
}

func TestMaxPressureSane(t *testing.T) {
	_, mp := pipeline(t, `
fun main() -> word {
  let (a, b, c, d) = sram[4](0);
  let (e, f, g, h) = sram[4](4);
  a + b + c + d + e + f + g + h
}`)
	// The most temps live at once at any instruction boundary.
	lv := mir.ComputeLiveness(mp)
	pr := 0
	for _, b := range mp.Blocks {
		for _, s := range lv.Points(b) {
			pr = max(pr, len(s.AppendTo(nil)))
		}
	}
	if pr < 2 || pr > 10 {
		t.Fatalf("odd max pressure %d\n%s", pr, mp)
	}
}
