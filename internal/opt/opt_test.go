package opt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cps"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/types"
)

func compile(t *testing.T, src string) *cps.Program {
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
	return p
}

// countOps counts term kinds over reachable functions.
type opCount struct {
	arith, reads, writes, readWords, funs int
}

func count(p *cps.Program) opCount {
	var c opCount
	for _, f := range p.Funs {
		if f == nil {
			continue
		}
		c.funs++
		cps.Walk(&f.Body, func(slot *cps.Term) {
			switch t := (*slot).(type) {
			case *cps.Arith:
				c.arith++
			case *cps.MemRead:
				c.reads++
				c.readWords += len(t.Dsts)
			case *cps.MemWrite:
				c.writes++
			}
		})
	}
	return c
}

// sameBehavior runs original and optimized programs on identical
// machines and inputs, comparing results and memory.
func sameBehavior(t *testing.T, src string, argsets [][]uint32, init func(*cps.Machine)) {
	t.Helper()
	for _, args := range argsets {
		orig := compile(t, src)
		m1 := cps.NewMachine(2048, 2048, 256)
		if init != nil {
			init(m1)
		}
		r1, err := orig.Eval(m1, args, 2_000_000)
		if err != nil {
			t.Fatalf("orig eval: %v", err)
		}
		optd := compile(t, src)
		Optimize(optd)
		m2 := cps.NewMachine(2048, 2048, 256)
		if init != nil {
			init(m2)
		}
		r2, err := optd.Eval(m2, args, 2_000_000)
		if err != nil {
			t.Fatalf("opt eval: %v\n%s", err, optd)
		}
		if len(r1.Results) != len(r2.Results) {
			t.Fatalf("result arity changed: %v vs %v", r1.Results, r2.Results)
		}
		for i := range r1.Results {
			if r1.Results[i] != r2.Results[i] {
				t.Fatalf("args %v: result[%d] = %d, optimized %d\n%s", args, i, r1.Results[i], r2.Results[i], src)
			}
		}
		for i := range m1.SRAM {
			if m1.SRAM[i] != m2.SRAM[i] {
				t.Fatalf("args %v: sram[%d] differs: %d vs %d", args, i, m1.SRAM[i], m2.SRAM[i])
			}
		}
		for i := range m1.SDRAM {
			if m1.SDRAM[i] != m2.SDRAM[i] {
				t.Fatalf("args %v: sdram[%d] differs", args, i)
			}
		}
	}
}

func TestConstantFolding(t *testing.T) {
	p := compile(t, `fun main() -> word { (2 + 3) * 4 - 1 }`)
	Optimize(p)
	c := count(p)
	if c.arith != 0 {
		t.Fatalf("arith ops remain: %d\n%s", c.arith, p)
	}
	res, err := p.Eval(cps.NewMachine(16, 16, 16), nil, 1000)
	if err != nil || res.Results[0] != 19 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestIdentities(t *testing.T) {
	p := compile(t, `fun main(a: word) -> word { ((a + 0) * 1 | 0) ^ 0 }`)
	Optimize(p)
	if c := count(p); c.arith != 0 {
		t.Fatalf("identities not removed:\n%s", p)
	}
}

func TestDeadFieldExtractionRemoved(t *testing.T) {
	// The paper's §4.4 example: fields u1.a, u2.a, u2.c are never used,
	// so their extraction code must disappear.
	src := `
layout pl = { a : 16, b : 32, c : 16 };
fun main(p1: word[2], p2: word[2]) -> word {
  let u1 = unpack[pl](p1);
  let u2 = unpack[pl](p2);
  (if (u1.c > 10) u1 else u2).b
}`
	p := compile(t, src)
	before := count(p)
	Optimize(p)
	after := count(p)
	if after.arith >= before.arith {
		t.Fatalf("no extraction removed: before %d, after %d", before.arith, after.arith)
	}
	// Each straddling b needs 4 ops (mask, shl, shr, or); u1.c needs 1
	// mask; u1.a, u2.a, u2.c disappear. 9 ops total.
	if after.arith > 9 {
		t.Fatalf("too many remaining arith ops: %d\n%s", after.arith, p)
	}
	sameBehavior(t, src, [][]uint32{
		{0x12345678, 0x9abc0005, 0x1111aaaa, 0xbbbb0099},
		{0x12345678, 0x9abc00ff, 0x1111aaaa, 0xbbbb0001},
	}, nil)
}

func TestReadTrimming(t *testing.T) {
	// Only d of an 4-word read is used: the read must shrink.
	src := `
fun main() -> word {
  let (a, b, c, d) = sram[4](100);
  d
}`
	p := compile(t, src)
	Optimize(p)
	c := count(p)
	if c.readWords != 1 {
		t.Fatalf("read words = %d, want 1\n%s", c.readWords, p)
	}
	m := cps.NewMachine(256, 16, 16)
	m.SRAM[103] = 77
	res, err := p.Eval(m, nil, 1000)
	if err != nil || res.Results[0] != 77 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestReadTrimmingVariableAddress(t *testing.T) {
	// Trimming a prefix off a read with a register address must insert
	// (and keep) the address-adjust instruction.
	src := `
fun main(base: word) -> word {
  let (a, b, c, d) = sram[4](base);
  d
}`
	p := compile(t, src)
	Optimize(p)
	m := cps.NewMachine(256, 16, 16)
	m.SRAM[103] = 77
	res, err := p.Eval(m, []uint32{100}, 1000)
	if err != nil || res.Results[0] != 77 {
		t.Fatalf("res=%v err=%v\n%s", res, err, p)
	}
	if c := count(p); c.readWords != 1 {
		t.Fatalf("read words = %d, want 1\n%s", c.readWords, p)
	}
}

func TestWholeReadRemoved(t *testing.T) {
	src := `
fun main(x: word) -> word {
  let (a, b) = sram[2](0);
  x
}`
	p := compile(t, src)
	Optimize(p)
	if c := count(p); c.reads != 0 {
		t.Fatalf("dead read not removed:\n%s", p)
	}
}

func TestSDRAMTrimKeepsAlignment(t *testing.T) {
	src := `
fun main() -> word {
  let (a, b, c, d) = sdram[4](10);
  c
}`
	p := compile(t, src)
	Optimize(p)
	c := count(p)
	// c is at offset 2: trim to [2,4) — 2 words at address 12.
	if c.readWords != 2 {
		t.Fatalf("read words = %d, want 2\n%s", c.readWords, p)
	}
	m := cps.NewMachine(16, 256, 16)
	m.SDRAM[12] = 5
	res, err := p.Eval(m, nil, 1000)
	if err != nil || res.Results[0] != 5 {
		t.Fatalf("res=%v err=%v\n%s", res, err, p)
	}
}

func TestContraction(t *testing.T) {
	// After optimization the linear chain of joins should collapse.
	p := compile(t, `
fun main(a: word) -> word {
  let x = if (a > 1) a else 1;
  let y = if (x > 2) x else 2;
  x + y
}`)
	Optimize(p)
	c := count(p)
	if c.funs > 3 {
		t.Fatalf("too many funs after contraction: %d\n%s", c.funs, p)
	}
}

func TestBranchFoldingUnreachable(t *testing.T) {
	p := compile(t, `
fun main(a: word) -> word {
  if (1 == 1) a + 1 else a - 1
}`)
	Optimize(p)
	s := p.String()
	if strings.Contains(s, "-") && strings.Contains(s, "if") {
		t.Fatalf("constant branch not folded:\n%s", s)
	}
}

func TestCSE(t *testing.T) {
	p := compile(t, `fun main(a: word, b: word) -> word { (a + b) * (a + b) }`)
	st := Optimize(p)
	if st.CSE == 0 {
		t.Fatalf("no CSE performed: %v\n%s", st, p)
	}
	if c := count(p); c.arith != 2 {
		t.Fatalf("arith = %d, want 2 (one add, one mul)\n%s", c.arith, p)
	}
}

func TestCSEKeepsVarAndConstApart(t *testing.T) {
	// x + y and x + 1 are different expressions even though the
	// variable y and the constant 1 share the number 1.
	src := `fun main(x: word, y: word) -> word { let a = x + y; let b = x + 1; a ^ b }`
	sameBehavior(t, src, [][]uint32{{10, 5}}, nil)
	p := compile(t, src)
	Optimize(p)
	res, err := p.Eval(cps.NewMachine(16, 16, 16), []uint32{10, 5}, 1000)
	if err != nil || res.Results[0] != 4 {
		t.Fatalf("res=%v err=%v, want 4\n%s", res, err, p)
	}
}

// TestOptimizeRandomPrograms compares seeded straight-line programs
// over two parameters with their optimized form. Each let applies a
// word operator to an earlier value and a right operand that is either
// a variable or a small constant, so variables and constants with the
// same number meet in the CSE table.
func TestOptimizeRandomPrograms(t *testing.T) {
	ops := []string{"+", "-", "^", "&", "|"}
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		names := []string{"x", "y"}
		var b strings.Builder
		b.WriteString("fun main(x: word, y: word) -> word {\n")
		for i := 0; i < 8; i++ {
			r := fmt.Sprint(rng.Intn(12))
			if rng.Intn(2) == 0 {
				r = names[rng.Intn(len(names))]
			}
			name := fmt.Sprintf("v%d", i)
			fmt.Fprintf(&b, "  let %s = %s %s %s;\n", name, names[rng.Intn(len(names))], ops[rng.Intn(len(ops))], r)
			names = append(names, name)
		}
		b.WriteString("  " + strings.Join(names[2:], " + ") + "\n}")
		sameBehavior(t, b.String(), [][]uint32{{10, 5}, {0, 1}, {0xffffffff, 7}}, nil)
	}
}

func TestUnusedHashRemoved(t *testing.T) {
	p := compile(t, `
fun main(a: word) -> word {
  let h = hash(a);
  a + 1
}`)
	Optimize(p)
	if strings.Contains(p.String(), "hash") {
		t.Fatalf("unused hash not removed:\n%s", p)
	}
}

func TestLoopPreserved(t *testing.T) {
	src := `
fun main(n: word) -> word {
  let acc = 0;
  while (n > 0) {
    let acc = acc + n;
    let n = n - 1;
  }
  acc
}`
	sameBehavior(t, src, [][]uint32{{0}, {1}, {10}, {100}}, nil)
}

func TestMemoryBehaviorPreserved(t *testing.T) {
	src := `
fun main() -> word {
  let (a, b, c, d) = sram[4](100);
  let (e, f, g, h, i, j) = sram[6](200);
  let u = a + c;
  let v = g + h;
  sram(300) <- (b, e, v, u);
  sram(500) <- (f, j, d, i);
  u + v
}`
	sameBehavior(t, src, [][]uint32{{}}, func(m *cps.Machine) {
		rng := rand.New(rand.NewSource(42))
		for i := range m.SRAM {
			m.SRAM[i] = rng.Uint32()
		}
	})
}

func TestExceptionBehaviorPreserved(t *testing.T) {
	src := `
fun check[v: word, bad: exn(word)] -> word {
  if (v > 100) raise bad(v) else v * 2
}
fun main(a: word, b: word) -> word {
  try {
    check[v = a, bad = TooBig] + check[v = b, bad = TooBig]
  } handle TooBig (w: word) { w }
}`
	sameBehavior(t, src, [][]uint32{{1, 2}, {200, 2}, {3, 150}}, nil)
}

func TestPackBehaviorPreserved(t *testing.T) {
	src := `
layout h = {
  verpri : overlay { whole : 8 | parts : { version : 4, priority : 4 } },
  flow : 24
};
fun main(v: word, pr: word, fl: word) -> word {
  let w = pack[h] [ verpri = [ parts = [ version = v, priority = pr ] ], flow = fl ];
  let u = unpack[h]((w));
  u.verpri.whole * 0x1000000 + u.flow
}`
	sameBehavior(t, src, [][]uint32{{6, 5, 0x123}, {15, 15, 0xffffff}, {0, 0, 0}}, nil)
}

func TestOptimizeIdempotent(t *testing.T) {
	src := `
fun main(a: word) -> word {
  let x = a * 2 + 0;
  let y = if (x > 4) x else 4;
  y & 0xffffffff
}`
	p := compile(t, src)
	Optimize(p)
	s1 := p.String()
	st := Optimize(p)
	if st.Folded+st.Copies+st.Inlined+st.Eta+st.DeadBindings+st.TrimmedReads > 0 {
		t.Fatalf("second Optimize still changed things: %v\nbefore:\n%s\nafter:\n%s", st, s1, p)
	}
}

func TestLoopInvariantHoisting(t *testing.T) {
	// `q & 0x7` is invariant in the loop; after hoisting it must
	// compute once, before the loop entry.
	src := `
fun main(q: word) -> word {
  let acc = 0;
  let i = 0;
  while (i < (q & 0x7)) {
    let acc = acc + (q | 0x10) + i;
    let i = i + 1;
  }
  acc
}`
	p := compile(t, src)
	st := Optimize(p)
	if st.Hoisted < 2 {
		t.Fatalf("hoisted = %d, want >= 2 (q&7 and q|0x10)\n%s", st.Hoisted, p)
	}
	sameBehavior(t, src, [][]uint32{{0}, {3}, {7}, {0xff}}, nil)
}

func TestHoistingPreservesDominance(t *testing.T) {
	// The hoisted binding's value is used inside the loop only; the
	// program must still evaluate correctly when the loop runs zero
	// times.
	sameBehavior(t, `
fun main(q: word) -> word {
  let i = 0;
  let s = 0;
  while (i < q) {
    let s = s + (q * 3);
    let i = i + 1;
  }
  s
}`, [][]uint32{{0}, {1}, {5}}, nil)
}
