package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestWarmStartAssignmentFamily is the warm-start correctness check on
// the assignment benchmark family: after a single bound change, a
// solve warm-started from the previous basis must reach exactly the
// cold-solve objective while spending fewer simplex iterations.
func TestWarmStartAssignmentFamily(t *testing.T) {
	coldTotal, warmTotal := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		p := buildAssignment(40, seed)
		base, err := p.Solve(nil)
		if err != nil || base.Status != Optimal {
			t.Fatalf("seed %d: base solve: %v %v", seed, base.Status, err)
		}
		if base.Basis == nil {
			t.Fatalf("seed %d: no basis snapshot on solution", seed)
		}
		// Forbid one column the optimum selected — the branch-and-bound
		// "down branch" shape.
		col := -1
		for j := 0; j < p.NumCols(); j++ {
			if base.X[j] > 0.5 {
				col = j
				break
			}
		}
		p.SetBounds(col, 0, 0)
		cold, err := p.Solve(nil)
		if err != nil || cold.Status != Optimal {
			t.Fatalf("seed %d: cold re-solve: %v %v", seed, cold.Status, err)
		}
		warm, err := p.Solve(&Options{WarmBasis: base.Basis})
		if err != nil || warm.Status != Optimal {
			t.Fatalf("seed %d: warm re-solve: %v %v", seed, warm.Status, err)
		}
		if warm.Obj != cold.Obj {
			t.Fatalf("seed %d: warm obj %v != cold obj %v", seed, warm.Obj, cold.Obj)
		}
		if warm.Iters > cold.Iters {
			t.Errorf("seed %d: warm start took %d iters, cold %d", seed, warm.Iters, cold.Iters)
		}
		coldTotal += cold.Iters
		warmTotal += warm.Iters
	}
	if warmTotal >= coldTotal {
		t.Fatalf("warm starts did not reduce iterations: warm %d vs cold %d", warmTotal, coldTotal)
	}
	t.Logf("assignment family re-solve iterations: cold %d, warm %d (%.1fx)",
		coldTotal, warmTotal, float64(coldTotal)/float64(warmTotal))
}

// TestWarmStartRandomLPs checks warm-vs-cold objective agreement on
// random LPs after random bound changes, including changes that leave
// the warm basis primal-infeasible (phase 1 must recover).
func TestWarmStartRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(8)
		m := 2 + rng.Intn(6)
		p := NewProblem()
		for j := 0; j < n; j++ {
			p.AddCol(float64(rng.Intn(9)-4), 0, float64(1+rng.Intn(3)))
		}
		for r := 0; r < m; r++ {
			var cols []int
			var vals []float64
			for j := 0; j < n; j++ {
				if v := float64(rng.Intn(5) - 2); v != 0 {
					cols = append(cols, j)
					vals = append(vals, v)
				}
			}
			lo := float64(-rng.Intn(4))
			p.AddRow(lo, lo+float64(rng.Intn(8)), cols, vals)
		}
		base, err := p.Solve(nil)
		if err != nil || base.Status != Optimal {
			continue
		}
		// Random single bound tightening, as branching would do.
		col := rng.Intn(n)
		lo, hi := p.Bounds(col)
		if rng.Intn(2) == 0 {
			hi = math.Floor((lo + hi) / 2)
		} else {
			lo = math.Ceil((lo + hi) / 2)
		}
		if lo > hi {
			continue
		}
		p.SetBounds(col, lo, hi)
		cold, err1 := p.Solve(nil)
		warm, err2 := p.Solve(&Options{WarmBasis: base.Basis})
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v %v", trial, err1, err2)
		}
		if cold.Status != warm.Status {
			t.Fatalf("trial %d: cold %v vs warm %v", trial, cold.Status, warm.Status)
		}
		if cold.Status == Optimal && math.Abs(cold.Obj-warm.Obj) > 1e-6 {
			t.Fatalf("trial %d: cold obj %v vs warm obj %v", trial, cold.Obj, warm.Obj)
		}
	}
}

// TestWarmBasisMismatchFallsBack: a snapshot from a different problem
// shape must be ignored, not crash or corrupt the solve.
func TestWarmBasisMismatchFallsBack(t *testing.T) {
	small := buildAssignment(3, 1)
	sol, err := small.Solve(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatal(err)
	}
	big := buildAssignment(5, 1)
	ref, _ := big.Solve(nil)
	got, err := big.Solve(&Options{WarmBasis: sol.Basis})
	if err != nil || got.Status != Optimal || got.Obj != ref.Obj {
		t.Fatalf("fallback solve: %+v (want obj %v), err %v", got, ref.Obj, err)
	}
	// An internally inconsistent basis (all variables basic) likewise.
	bad := &Basis{State: make([]int8, big.NumCols()+big.NumRows()), Order: make([]int, big.NumRows())}
	for i := range bad.State {
		bad.State[i] = int8(stBasic)
	}
	got, err = big.Solve(&Options{WarmBasis: bad})
	if err != nil || got.Status != Optimal || got.Obj != ref.Obj {
		t.Fatalf("bad-basis solve: %+v, err %v", got, err)
	}
}

// TestWarmBasisRowPrefixOnly: a snapshot over the same columns and
// fewer rows (the problem without its last two), or over more, is not
// adopted as a row prefix: the solve must end bit for bit where a cold
// one does.
func TestWarmBasisRowPrefixOnly(t *testing.T) {
	big := buildAssignment(5, 1)
	ref, err := big.Solve(nil)
	if err != nil || ref.Status != Optimal {
		t.Fatal(err)
	}
	fewer := NewProblem()
	for j := 0; j < big.NumCols(); j++ {
		lo, hi := big.Bounds(j)
		fewer.AddCol(big.Obj(j), lo, hi)
	}
	for r := 0; r < big.NumRows()-2; r++ {
		lo, hi := big.RowBounds(r)
		var cols []int
		var vals []float64
		for _, e := range big.Row(r) {
			cols, vals = append(cols, e.Col), append(vals, e.Val)
		}
		fewer.AddRow(lo, hi, cols, vals)
	}
	refF, errF := fewer.Solve(nil)
	got, err := big.Clone().Solve(&Options{WarmBasis: refF.Basis})
	sameSolve(t, "fewer-row snapshot", got, ref, err, nil)
	got, err = fewer.Clone().Solve(&Options{WarmBasis: ref.Basis})
	sameSolve(t, "more-row snapshot", got, refF, err, errF)
}

// TestClone verifies clones are fully independent of the original.
func TestClone(t *testing.T) {
	p := buildAssignment(6, 3)
	q := p.Clone()
	if q.NumCols() != p.NumCols() || q.NumRows() != p.NumRows() || q.NumNonzeros() != p.NumNonzeros() {
		t.Fatalf("clone shape mismatch")
	}
	ref, _ := p.Solve(nil)
	q.SetBounds(0, 0, 0)
	q.SetObj(1, 999)
	if lo, hi := p.Bounds(0); lo != 0 || hi != 1 {
		t.Fatalf("original bounds mutated through clone: [%v,%v]", lo, hi)
	}
	if p.Obj(1) == 999 {
		t.Fatal("original objective mutated through clone")
	}
	again, _ := p.Solve(nil)
	if again.Obj != ref.Obj {
		t.Fatalf("original solve changed after clone mutation: %v vs %v", again.Obj, ref.Obj)
	}
}
