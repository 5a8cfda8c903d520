package workloads

import (
	"testing"
	"time"

	"repro/internal/mip"
	"repro/internal/nova"
)

// TestFullCompileAll compiles the three paper programs through the
// whole pipeline with one MIP worker and pins the deterministic
// counters of each: model size, simplex iterations and B&B nodes of
// the allocation solve, moves, spills and code size. Any change to the
// solver or the model builder that moves one of them fails here, so a
// change claimed to keep the same bits has to; a change meant to move
// them updates the table and says why.
func TestFullCompileAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full ILP compilation takes minutes")
	}
	for _, tc := range []struct {
		name, src                  string
		vars, cons, lpIters, nodes int
		moves, codeWords           int
	}{
		{"aes.nova", AESSource, 7684, 10208, 6858, 1, 13, 393},
		{"kasumi.nova", KasumiSource, 8631, 7557, 8950, 0, 5, 364},
		{"nat.nova", NATSource, 3619, 5472, 2764, 85, 8, 133},
	} {
		start := time.Now()
		opts := nova.DefaultOptions()
		opts.MIP = &mip.Options{Time: 120 * time.Second, Workers: 1}
		comp, err := nova.Compile(tc.name, tc.src, opts)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		st, res := comp.Alloc.ModelStats, comp.Alloc.MIP
		t.Logf("%s: %v | mir instrs=%d temps=%d | model vars=%d cons=%d obj=%d | mip status=%v lp iters=%d nodes=%d root=%v total=%v | moves=%d spills=%d | code=%d words",
			tc.name, time.Since(start).Round(time.Millisecond),
			comp.MIR.NumInstrs(), comp.MIR.NumTemps(),
			st.Vars, st.Constraints, st.ObjTerms,
			res.Status, res.LPIters, res.Nodes,
			res.RootTime.Round(time.Millisecond), res.Time.Round(time.Millisecond),
			comp.Alloc.NumMoves(), comp.Alloc.Spills, comp.Asm.CodeWords())
		got := [...]int{st.Vars, st.Constraints, res.LPIters, res.Nodes, comp.Alloc.NumMoves(), comp.Alloc.Spills, comp.Asm.CodeWords()}
		want := [...]int{tc.vars, tc.cons, tc.lpIters, tc.nodes, tc.moves, 0, tc.codeWords}
		if got != want {
			t.Errorf("%s: (vars, cons, lp iters, nodes, moves, spills, code words) = %v, want %v", tc.name, got, want)
		}
	}
}
