package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lp"
)

// TestHeuristicAllocations pins the objects one completion-heuristic
// call allocates at the paper programs' root LP point (the model
// before presolve), and whether the call completes that point (NAT's
// coloring fails there). The heuristic runs at every branch-and-bound
// node with fractional columns, so its per-call cost is search cost.
func TestHeuristicAllocations(t *testing.T) {
	for _, c := range []struct {
		name   string
		ok     bool
		allocs float64
	}{
		{"aes", true, 115},
		{"kasumi", true, 16},
		{"nat", false, 35},
	} {
		src, err := os.ReadFile(filepath.Join("..", "workloads", c.name+".nova"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := buildGraph(lower(t, string(src)), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		il, err := buildModel(g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sol, err := il.m.LP().Solve(nil)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s: root LP: %v %v", c.name, sol.Status, err)
		}
		if _, ok := il.heuristic(sol.X); ok != c.ok {
			t.Errorf("%s: heuristic completes the root point: %v, want %v", c.name, ok, c.ok)
		}
		got := testing.AllocsPerRun(5, func() { il.heuristic(sol.X) })
		if got != c.allocs {
			t.Errorf("%s: heuristic allocates %v objects per call, want %v", c.name, got, c.allocs)
		}
	}
}

// TestModelBuildAllocations bounds the objects one graph and model
// build allocates for the paper programs: 4,712 / 4,447 / 1,438 at
// this writing, 5,129 / 4,847 / 1,597 under the race detector (its
// sync.Pool drops fmt's buffers, and slices.Grow allocates twice). The
// bounds sit above both, far below the row counts (10,204 / 7,533 /
// 5,472), and two more objects per program point (382 / 359 / 129)
// exceed them, so a row or a point that allocates again fails here.
func TestModelBuildAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		max  float64
	}{
		{"aes", 3200},
		{"kasumi", 2900},
		{"nat", 900},
	} {
		src, err := os.ReadFile(filepath.Join("..", "workloads", c.name+".nova"))
		if err != nil {
			t.Fatal(err)
		}
		mp := lower(t, string(src))
		got := testing.AllocsPerRun(3, func() {
			g, err := buildGraph(mp, DefaultOptions())
			if err == nil {
				_, err = buildModel(g)
			}
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got > c.max {
			t.Errorf("%s: graph and model build allocate %v objects, want at most %v", c.name, got, c.max)
		}
	}
}
