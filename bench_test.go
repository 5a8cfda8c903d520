package repro

// Benchmarks for the paper's model figures (2 and 3) and whole-program
// compile times. The §11 tables (Figures 5-7, throughput, chip scaling,
// latency hiding) and the §7-§9 model-option ablation come from
// cmd/novabench; EXPERIMENTS.md records paper-vs-measured values.
//
//	go test -run=NONE -bench=. -benchtime=1x -benchmem .

import (
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
		for ti, t := range T {
			for range R {
				m.Term(1, m.Binary()) // x[t,r]
			}
			m.Eq(cost[t]) // row ti: sum_r x[t,r] = cost[t]
			if lo, _ := m.LP().RowBounds(ti); lo != cost[t] {
				b.Fatalf("row %d has rhs %g, want %g", ti, lo, cost[t])
			}
		}
		if st := m.Stats(); st.Vars != 6 || st.Constraints != 2 || st.Nonzeros != 6 {
			b.Fatalf("bad instantiation: %+v", st)
		}
		for j := 0; j < 6; j++ {
			if col := m.LP().Col(j); len(col) != 1 || col[0].Row != j/len(R) {
				b.Fatalf("x column %d = %+v, want one entry in row %d", j, col, j/len(R))
			}
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
