package core

import (
	"testing"

	"repro/internal/cps"
	"repro/internal/isel"
	"repro/internal/mir"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/ssu"
	"repro/internal/types"
)

// lower runs the front end through instruction selection.
func lower(t *testing.T, src string) *mir.Program {
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
	return isel.Select(p)
}

func allocate(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	mp := lower(t, src)
	res, err := Allocate(mp, opts, nil)
	if err != nil {
		t.Fatalf("allocate: %v\nmir:\n%s", err, mp)
	}
	if err := Verify(res); err != nil {
		t.Fatalf("verify: %v\nmir:\n%s", err, mp)
	}
	return res
}

func TestMoveCostTable(t *testing.T) {
	cases := []struct {
		from, to Bank
		want     float64
	}{
		{A, B, MvC},
		{A, S, MvC},
		{A, M, MvC + StC},
		{A, L, MvC + StC + LdC},
		{M, L, LdC},
		{M, A, LdC + MvC},
		{L, A, MvC},
		{L, S, MvC},
		{S, M, StC},
		{S, A, StC + LdC + MvC},
		{LD, B, MvC},
	}
	for _, tc := range cases {
		if got := MoveCost(tc.from, tc.to); got != tc.want {
			t.Errorf("MoveCost(%v,%v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if MoveCost(A, A) != 0 {
		t.Error("self move not free")
	}
}

func TestStraightLineAllocation(t *testing.T) {
	res := allocate(t, `fun main(a: word, b: word) -> word { a + b }`, DefaultOptions())
	// A two-operand add: no moves should ever be needed.
	if len(res.Moves) != 0 {
		t.Fatalf("unexpected moves: %+v", res.Moves)
	}
	if res.Spills != 0 {
		t.Fatalf("unexpected spills")
	}
}

// TestFigure3 reproduces the program of Figure 3 and checks the set
// and solution shape: two temps must be moved out of the L bank (the
// first read leaves b, d live while the second read needs 6 registers:
// 4 + 6 > 8).
func TestFigure3(t *testing.T) {
	src := `
fun main() {
  let (a, b, c, d) = sram[4](100);
  let (e, f, g, h, i, j) = sram[6](200);
  let u = a + c;
  let v = g + h;
  sram(300) <- (b, e, v, u);
  sram(500) <- (f, j, d, i);
}`
	res := allocate(t, src, DefaultOptions())
	st := res.AggregateStats()
	// Figure 3/6 statistics: DefL4 + DefL6 = 10 defined, UseS4 twice = 8 used.
	if st.DefL != 10 {
		t.Fatalf("DefL temps = %d, want 10", st.DefL)
	}
	if st.UseS != 8 {
		t.Fatalf("UseS temps = %d, want 8", st.UseS)
	}
	if res.Spills != 0 {
		t.Fatalf("spills = %d, want 0", res.Spills)
	}
	// a..d (4) + e..j (6) cannot all stay in L (8 regs): at least two
	// values must leave L before the second read.
	if res.NumMoves() < 2 {
		t.Fatalf("moves = %d, want >= 2\nmoves: %+v", res.NumMoves(), res.Moves)
	}
}

func TestAggregateColorsAdjacent(t *testing.T) {
	res := allocate(t, `
fun main() -> word {
  let (a, b, c) = sram[3](0);
  a + c
}`, DefaultOptions())
	// Verify() already checks adjacency; double-check the colors here.
	var cols []int
	for v := mir.Temp(0); int(v) < 64; v++ {
		if c, ok := res.ColorOf(v, L); ok {
			cols = append(cols, c)
		}
	}
	if len(cols) < 3 {
		t.Fatalf("expected >= 3 colored temps, got %v", cols)
	}
}

func TestWriteOperandOrderConflict(t *testing.T) {
	// §2.1: x at positions 2 and 1 of two stores. SSU cloning makes
	// the coloring feasible; without clones the same register would
	// need two numbers.
	src := `
fun main(x: word, u: word, v: word, w2: word, a2: word, b2: word, c2: word) {
  sram(100) <- (u, v, x, w2);
  sram(200) <- (a2, x, b2, c2);
}`
	res := allocate(t, src, DefaultOptions())
	if res.Spills != 0 {
		t.Fatalf("spills = %d", res.Spills)
	}
}

// TestSSUInfeasibilityWithoutCloning: §9 item 4 — without static
// single use, a temporary used at two different positions of two
// write aggregates needs two colors in the same bank at once, and the
// model is correctly detected as infeasible. With SSU (the default
// pipeline), the same program allocates fine.
func TestSSUInfeasibilityWithoutCloning(t *testing.T) {
	// Full-bank aggregates pin every position: x would need color 0
	// for the first write and color 7 for the second (§9's
	// sram(...) <- (X,a,b,c) / sram(...) <- (a,b,c,X) example scaled
	// to the real 8-register bank).
	src := `
fun main(x: word, a2: word, b2: word, c2: word, d2: word, e2: word, f2: word) {
  sram(100) <- (x, a2, b2, c2, d2, e2, f2, a2 + 0);
  sram(200) <- (a2 + 1, b2 + 1, c2 + 1, d2 + 1, e2 + 1, f2 + 1, a2 + 2, x);
}`
	// Pipeline WITHOUT the SSU transform.
	f := source.NewFile("t.nova", src)
	errs := source.NewErrorList(f)
	prog := parser.Parse(f, errs)
	info := types.Check(prog, errs)
	p := cps.Convert(info, "main", errs)
	if errs.HasErrors() {
		t.Fatalf("%v", errs)
	}
	opt.Optimize(p)
	mp := isel.Select(p)
	if _, err := Allocate(mp, DefaultOptions(), nil); err == nil {
		t.Fatal("expected infeasibility without SSU cloning")
	}
	// And with SSU it allocates.
	allocate(t, src, DefaultOptions())
}

func TestHashSameRegister(t *testing.T) {
	res := allocate(t, `
fun main(x: word) -> word {
  hash(x)
}`, DefaultOptions())
	_ = res // Verify checks the same-register coupling.
}

func TestBranchesAndLoops(t *testing.T) {
	allocate(t, `
fun main(n: word) -> word {
  let acc = 0;
  while (n > 0) {
    let acc = acc + n;
    let n = n - 1;
  }
  acc
}`, DefaultOptions())
}

func TestSDRAMAggregates(t *testing.T) {
	res := allocate(t, `
fun main() {
  let (a, b, c, d) = sdram[4](0);
  sdram(8) <- (b + 0, a + 0, d + 0, c + 0);
}`, DefaultOptions())
	st := res.AggregateStats()
	if st.DefLD != 4 || st.UseSD != 4 {
		t.Fatalf("agg stats = %+v", st)
	}
}

func TestCoarseningOffMatchesOn(t *testing.T) {
	// A scaled-down Figure 3 keeps the per-point (paper-exact) model
	// tractable in tests; the benchmark suite exercises the full one.
	src := `
fun main() -> word {
  let (a, b, c, d) = sram[4](100);
  let (e, f) = sram[2](200);
  let u = a + c;
  sram(300) <- (b, e, u);
  u + f
}`
	on := DefaultOptions()
	off := DefaultOptions()
	off.Coarsen = false
	r1 := allocate(t, src, on)
	r2 := allocate(t, src, off)
	// The per-point model can only be at least as good (its solution
	// space is a superset).
	if r2.WeightedCost() > r1.WeightedCost()+1e-6 {
		t.Fatalf("per-point model worse than coarsened: %v vs %v",
			r2.WeightedCost(), r1.WeightedCost())
	}
}

func TestPruningShrinksModel(t *testing.T) {
	src := `
fun main() -> word {
  let (a, b) = sram[2](0);
  a + b
}`
	with := DefaultOptions()
	without := DefaultOptions()
	without.Prune = false
	mp1 := lower(t, src)
	r1, err := Allocate(mp1, with, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp2 := lower(t, src)
	r2, err := Allocate(mp2, without, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ModelStats.Vars >= r2.ModelStats.Vars {
		t.Fatalf("pruning did not shrink the model: %d vs %d vars",
			r1.ModelStats.Vars, r2.ModelStats.Vars)
	}
	// Pruning must not change the achievable cost here.
	if r1.WeightedCost() != r2.WeightedCost() {
		t.Fatalf("pruning changed cost: %v vs %v", r1.WeightedCost(), r2.WeightedCost())
	}
}

func TestSpillForced(t *testing.T) {
	// Build pressure: read 8 SRAM words, compute on them, keep many
	// values live while also reading 8 more. 16 L-capable values with
	// only 8 L registers force traffic into A/B; that fits, so also
	// pile on ALU temps. This is mostly a stress test for capacity
	// constraints: it must allocate and verify cleanly.
	src := `
fun main() -> word {
  let (a0, a1, a2, a3, a4, a5, a6, a7) = sram[8](0);
  let (b0, b1, b2, b3, b4, b5, b6, b7) = sram[8](8);
  let s0 = a0 + b0; let s1 = a1 + b1; let s2 = a2 + b2; let s3 = a3 + b3;
  let s4 = a4 + b4; let s5 = a5 + b5; let s6 = a6 + b6; let s7 = a7 + b7;
  sram(16) <- (s0, s1, s2, s3, s4, s5, s6, s7);
  s0 + s7
}`
	res := allocate(t, src, DefaultOptions())
	if res.Spills != 0 {
		t.Logf("spilled %d (acceptable under pressure)", res.Spills)
	}
}

func TestRematReducesPressureCost(t *testing.T) {
	// A constant used on both sides of a high-pressure region can be
	// discarded and re-materialized with remat on.
	src := `
fun main(x: word) -> word {
  let k = 0x12345678;
  let (a0, a1, a2, a3, a4, a5, a6, a7) = sram[8](0);
  let s = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
  s + k + x
}`
	off := DefaultOptions()
	on := DefaultOptions()
	on.Remat = true
	r1 := allocate(t, src, off)
	r2 := allocate(t, src, on)
	_ = r1
	if r2.Remats > 0 {
		t.Logf("remat chose %d materializations", r2.Remats)
	}
}

func TestNoSpillOptionInfeasibleDetection(t *testing.T) {
	// A tiny program trivially fits; NoSpill must still succeed.
	src := `fun main(a: word) -> word { a + 1 }`
	opts := DefaultOptions()
	opts.NoSpill = true
	allocate(t, src, opts)
}

func TestWeightedCostMatchesObjective(t *testing.T) {
	src := `
fun main() {
  let (a, b, c, d) = sram[4](100);
  let (e, f, g, h, i, j) = sram[6](200);
  let u = a + c;
  let v = g + h;
  sram(300) <- (b, e, v, u);
  sram(500) <- (f, j, d, i);
}`
	res := allocate(t, src, DefaultOptions())
	// The extracted move set must reproduce the solver's objective
	// (modulo the fixed-arc constant and the symmetry-breaking
	// epsilons).
	total := res.MIP.Obj + res.ObjConst
	if diff := res.WeightedCost() - total; diff > 0.01 || diff < -0.01 {
		t.Fatalf("extracted cost %v != objective %v", res.WeightedCost(), total)
	}
}
