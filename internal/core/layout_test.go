package core

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/mir"
)

// TestEntryOccupancyJoinsPredecessorExits checks the before side of
// every block-entry point's occupancy list, the Exists set the
// capacity rows, the interference graph and Verify count: each entry
// must be the temp's before-move location there (beforeLocAt), and
// that web must be the one every predecessor leaves the value in at
// its exit, the edge argument's for a parameter. An entry taken from
// the previous block in layout order instead can belong to another
// branch arm.
func TestEntryOccupancyJoinsPredecessorExits(t *testing.T) {
	perPoint := DefaultOptions()
	perPoint.Coarsen = false
	programs := []struct{ name, src string }{
		{"diamond", `fun main(x: word, y: word) -> word { if (x < y) { x + y } else { x - y } }`},
		{"loop", `
fun main(n: word) -> word {
  let acc = 0;
  while (n > 0) {
    let acc = acc + n;
    let n = n - 1;
  }
  acc
}`},
	}
	for _, w := range []string{"aes", "kasumi", "nat"} {
		src, err := os.ReadFile(filepath.Join("..", "workloads", w+".nova"))
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, struct{ name, src string }{w, string(src)})
	}
	for _, pr := range programs {
		for _, opts := range []Options{DefaultOptions(), perPoint} {
			g, err := buildGraph(lower(t, pr.src), opts)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			checkEntryOccupancy(t, pr.name, g)
		}
	}
}

func checkEntryOccupancy(t *testing.T, name string, g *graph) {
	t.Helper()
	mp := g.mp
	type inEdge struct {
		from mir.BlockID
		args []mir.Operand
	}
	preds := make([][]inEdge, len(mp.Blocks))
	for _, b := range mp.Blocks {
		for _, e := range b.Succs() {
			preds[e.To] = append(preds[e.To], inEdge{b.ID, e.Args})
		}
	}
	for _, b := range mp.Blocks {
		p := g.entry[b.ID]
		for _, le := range g.beforeLocs[p] {
			if want := g.beforeLocAt(le.v, p); le.loc != want {
				t.Errorf("%s b%d entry: %s listed in location %d, before-move location is %d",
					name, b.ID, mp.TempName(le.v), le.loc, want)
				continue
			}
			for _, e := range preds[b.ID] {
				src := le.v
				if i := slices.Index(b.Params, le.v); i >= 0 {
					src = e.args[i].Temp
				}
				exit := g.activeLocAt(src, g.exit(e.from))
				if exit < 0 || g.find(exit) != g.find(le.loc) {
					t.Errorf("%s b%d entry: %s's web is not b%d's exit web of %s",
						name, b.ID, mp.TempName(le.v), e.from, mp.TempName(src))
				}
			}
		}
	}
}
