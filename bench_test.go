package repro

// Benchmarks for the paper's model figures (2 and 3), the alternative
// spill objective, the engineering ablations of §7-§9 and whole-program
// compile times. The §11 tables (Figures 5-7, throughput, chip scaling,
// latency hiding) come from cmd/novabench; EXPERIMENTS.md records
// paper-vs-measured values.
//
//	go test -run=NONE -bench=. -benchtime=1x .

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/nova"
)

// ---------------------------------------------------------------------------
// Figure 2: AMPL-style model instantiation (model + data -> equations).

func BenchmarkFig2ModelInstantiation(b *testing.B) {
	T := []string{"t1", "t2"}
	R := []string{"r1", "r2", "r3"}
	cost := map[string]float64{"t1": 3, "t2": 3}
	for i := 0; i < b.N; i++ {
		m := model.New()
		for _, t := range T {
			e := model.NewExpr()
			for _, r := range R {
				e.Add(1, m.Binary("x", t, r))
			}
			m.Eq("row", e, cost[t])
		}
		if st := m.Stats(); st.Vars != 6 || st.Constraints != 2 {
			b.Fatalf("bad instantiation: %+v", st)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3: the sample program's model, built and solved to optimality.

const fig3Source = `
fun main() {
  let (a, b, c, d) = sram[4](100);
  let (e, f, g, h, i, j) = sram[6](200);
  let u = a + c;
  let v = g + h;
  sram(300) <- (b, e, v, u);
  sram(500) <- (f, j, d, i);
}`

func BenchmarkFig3ModelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp, err := nova.Compile("fig3.nova", fig3Source, nova.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if comp.Alloc.Spills != 0 {
			b.Fatalf("figure 3 must not spill")
		}
	}
	comp, err := nova.Compile("fig3.nova", fig3Source, nova.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(comp.Alloc.ModelStats.Vars), "model-vars")
	b.ReportMetric(float64(comp.Alloc.NumMoves()), "moves")
}

// ---------------------------------------------------------------------------
// §11: the alternative "are spills required at all" objective solves a
// much smaller program (the paper reports 9 s for AES, 19.2 s for NAT).

func BenchmarkSpillFeasibilityObjective(b *testing.B) {
	for _, w := range []workload{workloadTable[0], workloadTable[2]} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := nova.DefaultOptions()
				opts.SkipAsm = true
				opts.Alloc.NoSpill = true
				// Feasibility, not optimality: accept the first
				// incumbent.
				opts.MIP = &mip.Options{Gap: 0.99, Time: 3 * time.Minute}
				comp, err := nova.Compile(w.name+".nova", w.src, opts)
				if err != nil {
					b.Fatal(err)
				}
				if comp.Alloc.Spills != 0 {
					b.Fatal("NoSpill model produced spills")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (§7, §8, §9 engineering claims).

// BenchmarkAblationBankPruning: §8's static analysis dramatically
// shrinks the generated programs.
func BenchmarkAblationBankPruning(b *testing.B) {
	for _, prune := range []bool{true, false} {
		b.Run(fmt.Sprintf("prune=%v", prune), func(b *testing.B) {
			var vars, cons int
			for i := 0; i < b.N; i++ {
				opts := nova.DefaultOptions()
				opts.Alloc.Prune = prune
				comp, err := nova.Compile("fig3.nova", fig3Source, opts)
				if err != nil {
					b.Fatal(err)
				}
				vars = comp.Alloc.ModelStats.Vars
				cons = comp.Alloc.ModelStats.Constraints
			}
			b.ReportMetric(float64(vars), "model-vars")
			b.ReportMetric(float64(cons), "model-constraints")
		})
	}
}

// BenchmarkAblationRedundantAggregate: §9's extra cuts speed up the
// solver.
func BenchmarkAblationRedundantAggregate(b *testing.B) {
	for _, cuts := range []bool{true, false} {
		b.Run(fmt.Sprintf("cuts=%v", cuts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := nova.DefaultOptions()
				opts.Alloc.RedundantAggregate = cuts
				if _, err := nova.Compile("fig3.nova", fig3Source, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBias: §7's A-over-B bias speeds up the solver.
func BenchmarkAblationBias(b *testing.B) {
	for _, bias := range []bool{true, false} {
		b.Run(fmt.Sprintf("bias=%v", bias), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := nova.DefaultOptions()
				opts.Alloc.BiasAB = bias
				if _, err := nova.Compile("fig3.nova", fig3Source, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSpillTighten: §9's needsSpill upper bound.
func BenchmarkAblationSpillTighten(b *testing.B) {
	src := `
fun main() -> word {
  let (a0, a1, a2, a3, a4, a5, a6, a7) = sram[8](0);
  let (b0, b1, b2, b3, b4, b5, b6, b7) = sram[8](8);
  let s0 = a0 + b0; let s1 = a1 + b1; let s2 = a2 + b2; let s3 = a3 + b3;
  let s4 = a4 + b4; let s5 = a5 + b5; let s6 = a6 + b6; let s7 = a7 + b7;
  sram(16) <- (s0, s1, s2, s3, s4, s5, s6, s7);
  s0 + s7
}`
	for _, tighten := range []bool{true, false} {
		b.Run(fmt.Sprintf("tighten=%v", tighten), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := nova.DefaultOptions()
				opts.Alloc.TightenSpill = tighten
				if _, err := nova.Compile("pressure.nova", src, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCoarsening: per-point (paper-exact) moves vs
// event-point coarsening.
func BenchmarkAblationCoarsening(b *testing.B) {
	src := `
fun main() -> word {
  let (a, b, c, d) = sram[4](100);
  let (e, f) = sram[2](200);
  let u = a + c;
  sram(300) <- (b, e, u);
  u + f
}`
	for _, coarsen := range []bool{true, false} {
		b.Run(fmt.Sprintf("coarsen=%v", coarsen), func(b *testing.B) {
			var vars int
			for i := 0; i < b.N; i++ {
				opts := nova.DefaultOptions()
				opts.Alloc.Coarsen = coarsen
				comp, err := nova.Compile("c.nova", src, opts)
				if err != nil {
					b.Fatal(err)
				}
				vars = comp.Alloc.ModelStats.Vars
			}
			b.ReportMetric(float64(vars), "model-vars")
		})
	}
}

// BenchmarkAblationRemat: §12's virtual constant bank C.
func BenchmarkAblationRemat(b *testing.B) {
	src := `
fun main(x: word) -> word {
  let k = 0x12345678;
  let (a0, a1, a2, a3, a4, a5, a6, a7) = sram[8](0);
  let s = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
  s + k + x
}`
	for _, remat := range []bool{false, true} {
		b.Run(fmt.Sprintf("remat=%v", remat), func(b *testing.B) {
			var code, remats int
			for i := 0; i < b.N; i++ {
				opts := nova.DefaultOptions()
				opts.Alloc.Remat = remat
				comp, err := nova.Compile("remat.nova", src, opts)
				if err != nil {
					b.Fatal(err)
				}
				code = comp.Asm.CodeWords()
				remats = comp.Alloc.Remats
			}
			b.ReportMetric(float64(code), "code-words")
			b.ReportMetric(float64(remats), "remats")
		})
	}
}

// BenchmarkCompile measures whole-pipeline compile times (the paper's
// claim: short enough for an edit-compile-debug cycle).
func BenchmarkCompile(b *testing.B) {
	for _, w := range workloadTable {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := nova.DefaultOptions()
				opts.MIP = &mip.Options{Time: 4 * time.Minute}
				if _, err := nova.Compile(w.name+".nova", w.src, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
