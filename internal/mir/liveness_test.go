package mir_test

import (
	"os"
	"path/filepath"
	"slices"
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

// pointKey names the point before instruction k of block b (k equal
// to the instruction count: before the terminator).
type pointKey struct {
	b mir.BlockID
	k int
}

// liveOracle recomputes the temps live at every point without the
// block-level dataflow: a temp is live at a point when a path from
// there reaches a read of it before any definition of it. It floods
// backward from every read, one point at a time, and stops at the
// temp's definition (an instruction's destination or a block
// parameter). A point's entry is indexed by temp.
func liveOracle(p *mir.Program) map[pointKey][]bool {
	preds := make([][]mir.BlockID, len(p.Blocks))
	for _, b := range p.Blocks {
		for _, e := range b.Succs() {
			preds[e.To] = append(preds[e.To], b.ID)
		}
	}
	live := map[pointKey][]bool{}
	type item struct {
		at pointKey
		t  mir.Temp
	}
	var work []item
	mark := func(at pointKey, o mir.Operand) {
		if live[at] == nil {
			live[at] = make([]bool, p.NumTemps())
		}
		if o.IsImm || live[at][o.Temp] {
			return
		}
		live[at][o.Temp] = true
		work = append(work, item{at, o.Temp})
	}
	for _, b := range p.Blocks {
		end := pointKey{b.ID, len(b.Instrs)}
		for k, in := range b.Instrs {
			for _, s := range in.Srcs {
				mark(pointKey{b.ID, k}, s)
			}
		}
		for _, o := range b.TermUses() {
			mark(end, o)
		}
		for _, e := range b.Succs() {
			for _, a := range e.Args {
				mark(end, a)
			}
		}
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		b := p.Blocks[it.at.b]
		if k := it.at.k; k > 0 {
			if !slices.Contains(b.Instrs[k-1].Dsts, it.t) {
				mark(pointKey{b.ID, k - 1}, mir.T(it.t))
			}
			continue
		}
		if slices.Contains(b.Params, it.t) {
			continue
		}
		for _, q := range preds[b.ID] {
			mark(pointKey{q, len(p.Blocks[q].Instrs)}, mir.T(it.t))
		}
	}
	return live
}

// members lists the temps marked in set in ascending order.
func members(set []bool) []mir.Temp {
	var out []mir.Temp
	for t, in := range set {
		if in {
			out = append(out, mir.Temp(t))
		}
	}
	return out
}

// checkLiveness compares every point's set and every block's In and
// Out with the oracle.
func checkLiveness(t *testing.T, name string, p *mir.Program) {
	t.Helper()
	want := liveOracle(p)
	lv := mir.ComputeLiveness(p)
	for _, b := range p.Blocks {
		for k, s := range lv.Points(b) {
			if got, w := s.AppendTo(nil), members(want[pointKey{b.ID, k}]); !slices.Equal(got, w) {
				t.Fatalf("%s: b%d point %d: live %v, oracle %v", name, b.ID, k, got, w)
			}
		}
		// In is the entry set without the params; Out is the union of
		// the successors' In and the edge args.
		in := make([]bool, p.NumTemps())
		for _, v := range members(want[pointKey{b.ID, 0}]) {
			in[v] = !slices.Contains(b.Params, v)
		}
		out := make([]bool, p.NumTemps())
		for _, e := range b.Succs() {
			succ := p.Blocks[e.To]
			for _, v := range members(want[pointKey{e.To, 0}]) {
				if !slices.Contains(succ.Params, v) {
					out[v] = true
				}
			}
			for _, a := range e.Args {
				if !a.IsImm {
					out[a.Temp] = true
				}
			}
		}
		if got, w := lv.In[b.ID].AppendTo(nil), members(in); !slices.Equal(got, w) {
			t.Fatalf("%s: b%d In %v, oracle %v", name, b.ID, got, w)
		}
		if got, w := lv.Out[b.ID].AppendTo(nil), members(out); !slices.Equal(got, w) {
			t.Fatalf("%s: b%d Out %v, oracle %v", name, b.ID, got, w)
		}
	}
}

// lower runs the front end and instruction selection on a Nova source.
func lower(t *testing.T, name, src string) *mir.Program {
	t.Helper()
	f := source.NewFile(name, src)
	errs := source.NewErrorList(f)
	prog := parser.Parse(f, errs)
	info := types.Check(prog, errs)
	p := cps.Convert(info, "main", errs)
	if errs.HasErrors() {
		t.Fatalf("%s: %v", name, errs)
	}
	opt.Optimize(p)
	ssu.Transform(p)
	return isel.Select(p)
}

// TestLivenessMatchesOracle checks every point's live set of the
// hand-built graphs and of the paper's three programs against the
// per-point oracle.
func TestLivenessMatchesOracle(t *testing.T) {
	diamond, _, _ := buildDiamond()
	checkLiveness(t, "diamond", diamond)
	loop, _, _ := buildLoop()
	checkLiveness(t, "loop", loop)
	for _, w := range []string{"aes", "kasumi", "nat"} {
		src, err := os.ReadFile(filepath.Join("..", "workloads", w+".nova"))
		if err != nil {
			t.Fatal(err)
		}
		checkLiveness(t, w, lower(t, w+".nova", string(src)))
	}
}
