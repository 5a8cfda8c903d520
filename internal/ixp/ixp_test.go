package ixp

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cps"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/types"
)

// compileRun compiles src, runs both the CPS reference evaluator and
// the simulator on identical memory images, and compares results and
// memory. It returns the simulator stats.
func compileRun(t *testing.T, src string, args []uint32, init func(sram, sdram, scratch []uint32)) *Stats {
	t.Helper()
	opts := nova.DefaultOptions()
	opts.MIP = &mip.Options{Time: 90 * time.Second}
	comp, err := nova.Compile("test.nova", src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Reference execution: the unoptimized CPS of the same source, so
	// the oracle shares no code with opt, ssu or the back end.
	f := source.NewFile("test.nova", src)
	errs := source.NewErrorList(f)
	unopt := cps.Convert(types.Check(parser.Parse(f, errs), errs), "main", errs)
	if errs.HasErrors() {
		t.Fatalf("reference front end: %v", errs)
	}
	ref := cps.NewMachine(1<<16, 1<<16, 1024)
	if init != nil {
		init(ref.SRAM, ref.SDRAM, ref.Scratch)
	}
	want, err := unopt.Eval(ref, args, 10_000_000)
	if err != nil {
		t.Fatalf("cps eval: %v", err)
	}
	// Simulated execution.
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 16
	cfg.SDRAMWords = 1 << 16
	cfg.Threads = 1
	m := New(cfg)
	if init != nil {
		init(m.SRAM, m.SDRAM, m.Scratch)
	}
	m.Load(comp.Asm)
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetArgs(0, regs, args); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(50_000_000)
	if err != nil {
		t.Fatalf("sim run: %v\nasm:\n%s", err, comp.Asm)
	}
	got := st.Results[0]
	if len(got) != len(want.Results) {
		t.Fatalf("results: sim %v, ref %v\nasm:\n%s", got, want.Results, comp.Asm)
	}
	for i := range got {
		if got[i] != want.Results[i] {
			t.Fatalf("result[%d]: sim %#x, ref %#x\nasm:\n%s", i, got[i], want.Results[i], comp.Asm)
		}
	}
	for i := range ref.SRAM {
		if ref.SRAM[i] != m.SRAM[i] {
			t.Fatalf("sram[%d]: ref %#x, sim %#x", i, ref.SRAM[i], m.SRAM[i])
		}
	}
	for i := range ref.SDRAM {
		if ref.SDRAM[i] != m.SDRAM[i] {
			t.Fatalf("sdram[%d] differs", i)
		}
	}
	return st
}

func TestE2EArithmetic(t *testing.T) {
	compileRun(t, `fun main(a: word, b: word) -> word { (a + b) * 2 - (a & b) }`,
		[]uint32{7, 9}, nil)
}

func TestE2EFigure3(t *testing.T) {
	compileRun(t, `
fun main() {
  let (a, b, c, d) = sram[4](100);
  let (e, f, g, h, i, j) = sram[6](200);
  let u = a + c;
  let v = g + h;
  sram(300) <- (b, e, v, u);
  sram(500) <- (f, j, d, i);
}`, nil, func(sram, _, _ []uint32) {
		rng := rand.New(rand.NewSource(3))
		for i := range sram {
			sram[i] = rng.Uint32()
		}
	})
}

func TestE2ELoop(t *testing.T) {
	compileRun(t, `
fun main(n: word) -> word {
  let acc = 0;
  while (n > 0) {
    let acc = acc + n * n;
    let n = n - 1;
  }
  acc
}`, []uint32{20}, nil)
}

func TestE2EBranches(t *testing.T) {
	for _, a := range []uint32{0, 1, 5, 200} {
		compileRun(t, `
fun main(a: word) -> word {
  if (a == 0) 100
  else if (a < 10) a * 2
  else a - 10
}`, []uint32{a}, nil)
	}
}

func TestE2EExceptions(t *testing.T) {
	for _, a := range []uint32{1, 2, 5} {
		compileRun(t, `
fun g[v: word, x1: exn[b: word, c: word], x2: exn()] -> word {
  if (v == 1) raise x2()
  else if (v == 2) raise x1[b = 10, c = 20]
  else v * 100
}
fun main(a: word) -> word {
  try {
    g[v = a, x2 = X2, x1 = X1]
  }
  handle X1 [b: word, c: word] { b + c }
  handle X2 () { 7 }
}`, []uint32{a}, nil)
	}
}

func TestE2EUnpackPack(t *testing.T) {
	compileRun(t, `
layout h = {
  verpri : overlay { whole : 8 | parts : { version : 4, priority : 4 } },
  flow : 24
};
fun main(v: word, pr: word, fl: word) -> word {
  let w = pack[h] [ verpri = [ parts = [ version = v, priority = pr ] ], flow = fl ];
  let u = unpack[h]((w));
  u.verpri.whole * 0x1000000 + u.flow
}`, []uint32{6, 5, 0x123}, nil)
}

func TestE2EHashBTS(t *testing.T) {
	compileRun(t, `
fun main(x: word) -> (word, word) {
  let h = hash(x);
  let old = sram_bts(50, 0x4);
  (h, old)
}`, []uint32{42}, func(sram, _, _ []uint32) {
		sram[50] = 3
	})
}

func TestE2ESDRAM(t *testing.T) {
	compileRun(t, `
fun main() -> word {
  let (a, b, c, d) = sdram[4](10);
  sdram(20) <- (d + 0, c + 0, b + 0, a + 0);
  a + d
}`, nil, func(_, sdram, _ []uint32) {
		for i := range sdram[:64] {
			sdram[i] = uint32(i * 3)
		}
	})
}

func TestE2EHighPressure(t *testing.T) {
	st := compileRun(t, `
fun main() -> word {
  let (a0, a1, a2, a3, a4, a5, a6, a7) = sram[8](0);
  let (b0, b1, b2, b3, b4, b5, b6, b7) = sram[8](8);
  let s0 = a0 + b0; let s1 = a1 + b1; let s2 = a2 + b2; let s3 = a3 + b3;
  let s4 = a4 + b4; let s5 = a5 + b5; let s6 = a6 + b6; let s7 = a7 + b7;
  sram(16) <- (s0, s1, s2, s3, s4, s5, s6, s7);
  s0 + s7
}`, nil, func(sram, _, _ []uint32) {
		for i := range sram[:16] {
			sram[i] = uint32(i + 1)
		}
	})
	if st.MemRefs < 3 {
		t.Fatalf("expected 3+ memory references, got %d", st.MemRefs)
	}
}

// TestLatencyHiding: with more threads the same total work takes fewer
// cycles per packet because memory latency overlaps with computation.
func TestLatencyHiding(t *testing.T) {
	src := `
fun main(base: word) -> word {
  let (a, b, c, d) = sram[4](base);
  let s = a + b + c + d;
  sram(base + 8) <- s;
  s
}`
	comp, err := nova.Compile("lh.nova", src, nova.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	run := func(threads int) int64 {
		cfg := DefaultConfig()
		cfg.SRAMWords = 1 << 12
		cfg.Threads = threads
		m := New(cfg)
		for i := range m.SRAM {
			m.SRAM[i] = uint32(i)
		}
		m.Load(comp.Asm)
		for th := 0; th < threads; th++ {
			if err := m.SetArgs(th, regs, []uint32{uint32(th * 16)}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := m.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	c1 := run(1)
	c4 := run(4)
	// 4 threads do 4x the work; with latency hiding they must need
	// fewer than 4x the cycles of a single thread.
	if c4 >= 4*c1 {
		t.Fatalf("no latency hiding: 1 thread %d cycles, 4 threads %d", c1, c4)
	}
	t.Logf("1 thread: %d cycles; 4 threads: %d cycles (%.2fx)", c1, c4, float64(c4)/float64(c1))
}

func TestCodeWords(t *testing.T) {
	comp, err := nova.Compile("cw.nova", `
fun main(a: word) -> word { a + 0x12345678 }`, nova.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The 32-bit immediate costs 2 instruction words.
	if w := comp.Asm.CodeWords(); w < 3 {
		t.Fatalf("code words = %d, want >= 3\n%s", w, comp.Asm)
	}
}

// TestE2EFIFOAndCSR exercises the receive/transmit FIFOs, CSR access,
// and voluntary context swaps through the full pipeline. The FIFOs are
// not part of the CPS reference machine's address space, so this test
// checks simulator behaviour directly.
func TestE2EFIFOAndCSR(t *testing.T) {
	comp, err := nova.Compile("fifo.nova", `
fun main(n: word) -> word {
  let (w0, w1, w2, w3) = rfifo[4](0);
  csr(5) <- w0 + n;
  ctx_swap();
  let back = csr(5);
  tfifo(0) <- (w1, w2, w3, back);
  back ^ w3
}`, nova.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 10
	cfg.SDRAMWords = 1 << 10
	cfg.Threads = 1
	m := New(cfg)
	m.SetRX(0, []uint32{10, 20, 30, 40})
	m.Load(comp.Asm)
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetArgs(0, regs, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(1_000_000)
	if err != nil {
		t.Fatalf("%v\n%s", err, comp.Asm)
	}
	if got := st.Results[0][0]; got != (10+7)^40 {
		t.Fatalf("result = %d, want %d", got, (10+7)^40)
	}
	want := []uint32{20, 30, 40, 17}
	if len(m.TX) != 4 {
		t.Fatalf("tx = %v", m.TX)
	}
	for i, w := range want {
		if m.TX[i] != w {
			t.Fatalf("tx[%d] = %d, want %d", i, m.TX[i], w)
		}
	}
	if m.CSR[5] != 17 {
		t.Fatalf("csr[5] = %d", m.CSR[5])
	}
}
