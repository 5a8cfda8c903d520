package workloads

import (
	"math"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/obs"
)

// TestDualWarmRestartWorkloads is the table test for warm-started
// node re-solves on the paper's three workloads plus the MultiKnapsack
// scaling instance: after a single branching bound change and after a
// bound tightening that cuts off the root point, the warm-started dual
// simplex must reach the same optimum as a cold primal solve of the
// mutated LP. The
// allocator ILPs are obtained by compiling each workload and pulling
// the integer program back out of the allocation result.
func TestDualWarmRestartWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles all three paper workloads")
	}
	type instance struct {
		name    string
		prob    *lp.Problem
		integer []bool
	}
	var instances []instance
	for _, tc := range []struct{ name, src string }{
		{"aes", AESSource},
		{"kasumi", KasumiSource},
		{"nat", NATSource},
	} {
		opts := nova.DefaultOptions()
		opts.MIP = &mip.Options{Time: 120 * time.Second}
		comp, err := nova.Compile(tc.name+".nova", tc.src, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		p, mask := comp.Alloc.ModelLP()
		if p == nil {
			t.Fatalf("%s: allocation carries no model", tc.name)
		}
		instances = append(instances, instance{tc.name, p, mask})
	}
	kn := mip.MultiKnapsack(60, 5, 12345)
	mask := make([]bool, kn.NumCols())
	for j := range mask {
		mask[j] = true
	}
	instances = append(instances, instance{"multiknapsack", kn, mask})

	base := obs.TakeSnapshot()
	for _, ins := range instances {
		root, err := ins.prob.Solve(nil)
		if err != nil || root.Status != lp.Optimal {
			t.Fatalf("%s: root LP: %v %v", ins.name, root, err)
		}
		// Branch target: an integer column fractional at the root if
		// one exists, else any integer column strictly inside its
		// bounds; skip the mutation if the relaxation is degenerate to
		// the point of having neither.
		branch := -1
		for j, x := range root.X {
			if !ins.integer[j] {
				continue
			}
			if math.Abs(x-math.Round(x)) > 1e-6 {
				branch = j
				break
			}
			if lo, hi := ins.prob.Bounds(j); branch < 0 && x > lo+1e-9 && x < hi-1e-9 {
				branch = j
			}
		}
		for _, mut := range []string{"bound-change", "tighten"} {
			q := ins.prob.Clone()
			switch mut {
			case "bound-change":
				if branch < 0 {
					t.Logf("%s: no branchable column; skipping bound change", ins.name)
					continue
				}
				// Branch down: ceil the value minus one, clamped at lo.
				lo, _ := q.Bounds(branch)
				up := math.Floor(root.X[branch])
				if up < lo {
					up = lo
				}
				q.SetBounds(branch, lo, up)
			case "tighten":
				// Cut off the root point by a bound: cap the integer
				// column furthest above its lower bound halfway between
				// the two.
				top, gap := -1, 1e-6
				for j, x := range root.X {
					if lo, _ := q.Bounds(j); ins.integer[j] && x-lo > gap {
						top, gap = j, x-lo
					}
				}
				if top < 0 {
					t.Logf("%s: every integer column sits at its lower bound; skipping tightening", ins.name)
					continue
				}
				lo, _ := q.Bounds(top)
				q.SetBounds(top, lo, lo+gap/2)
			}
			cold, err := q.Solve(&lp.Options{Method: lp.MethodPrimal})
			if err != nil {
				t.Fatalf("%s/%s: cold primal: %v", ins.name, mut, err)
			}
			warm, err := q.Solve(&lp.Options{WarmBasis: root.Basis})
			if err != nil {
				t.Fatalf("%s/%s: warm dual: %v", ins.name, mut, err)
			}
			if cold.Status != warm.Status {
				t.Fatalf("%s/%s: status mismatch: cold primal %v, warm dual %v",
					ins.name, mut, cold.Status, warm.Status)
			}
			if cold.Status == lp.Optimal {
				if diff := math.Abs(cold.Obj - warm.Obj); diff > 1e-5*(1+math.Abs(cold.Obj)) {
					t.Fatalf("%s/%s: objective mismatch: cold %v, warm dual %v",
						ins.name, mut, cold.Obj, warm.Obj)
				}
			}
			t.Logf("%s/%s: status=%v obj=%.4f iters cold=%d warm=%d",
				ins.name, mut, cold.Status, cold.Obj, cold.Iters, warm.Iters)
		}
	}
	if d := obs.Since(base); d["lp/dual_iterations"] == 0 {
		t.Error("lp/dual_iterations = 0: no warm re-solve took the dual path")
	}
}
