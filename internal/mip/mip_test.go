package mip

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10x0 + 13x1 + 7x2 + 5x3 s.t. 3x0+4x1+2x2+x3 <= 6, binary.
	// Best: x1+x2 = 13+7=20 (w 6); x0+x2+x3 = 10+7+5=22 (w 6). → 22.
	p := lp.NewProblem()
	vals := []float64{10, 13, 7, 5}
	wts := []float64{3, 4, 2, 1}
	cols := make([]int, 4)
	for i := range cols {
		cols[i] = p.AddCol(-vals[i], 0, 1)
	}
	p.AddRow(math.Inf(-1), 6, cols, wts)
	res, err := Solve(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !approx(res.Obj, -22) {
		t.Fatalf("res = %+v", res)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

// allInteger is the integrality mask Solve assumes for a nil mask.
func allInteger(p *lp.Problem) []bool {
	mask := make([]bool, p.NumCols())
	for j := range mask {
		mask[j] = true
	}
	return mask
}

// halfPacking is min -x-y over binaries with x+y <= 1.5: the root LP
// vertex (1, 0.5) is fractional and rounds to the infeasible (1, 1),
// so the search consults the heuristic before it finds the optimum -1.
func halfPacking() *lp.Problem {
	p := lp.NewProblem()
	x := p.AddCol(-1, 0, 1)
	y := p.AddCol(-1, 0, 1)
	p.AddRow(-lp.Inf, 1.5, []int{x, y}, []float64{1, 1})
	return p
}

// TestFractionalHeuristicRejected: a heuristic point that satisfies
// every row and bound but is fractional on integer columns must not
// become the incumbent.
func TestFractionalHeuristicRejected(t *testing.T) {
	heur := func([]float64) ([]float64, bool) { return []float64{0.75, 0.75}, true }
	res, err := Solve(halfPacking(), nil, &Options{Workers: 1, Heuristic: heur})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !approx(res.Obj, -1) {
		t.Fatalf("status %v obj %v X %v, want optimal -1", res.Status, res.Obj, res.X)
	}
	for j, v := range res.X {
		if v != math.Round(v) {
			t.Fatalf("X[%d] = %v is fractional", j, v)
		}
	}
}

// TestNaNHeuristicRejected: a heuristic point of NaNs fails every
// comparison, so the gate must reject it rather than let it through.
// One node leaves the search no time to replace a bad incumbent.
func TestNaNHeuristicRejected(t *testing.T) {
	nan := math.NaN()
	heur := func([]float64) ([]float64, bool) { return []float64{nan, nan}, true }
	res, err := Solve(halfPacking(), nil, &Options{Workers: 1, MaxNodes: 1, Heuristic: heur})
	if err != nil {
		t.Fatal(err)
	}
	if res.X != nil || math.IsNaN(res.Obj) {
		t.Fatalf("status %v obj %v X %v, want no incumbent", res.Status, res.Obj, res.X)
	}
	if feasible(halfPacking(), allInteger(halfPacking()), []float64{nan, nan}, 1e-6, nil) {
		t.Fatal("the gate accepted a NaN point")
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// x + y = 1.5 with binary x, y has no integer solution.
	p := lp.NewProblem()
	x := p.AddCol(0, 0, 1)
	y := p.AddCol(0, 0, 1)
	p.AddRow(1.5, 1.5, []int{x, y}, []float64{1, 1})
	res, err := Solve(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestEqualitySelection(t *testing.T) {
	// Choose exactly one of three options with costs 5, 3, 9.
	p := lp.NewProblem()
	cols := []int{p.AddCol(5, 0, 1), p.AddCol(3, 0, 1), p.AddCol(9, 0, 1)}
	p.AddRow(1, 1, cols, []float64{1, 1, 1})
	res, err := Solve(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Obj, 3) || !approx(res.X[cols[1]], 1) {
		t.Fatalf("res = %+v", res)
	}
}

func TestMixedInteger(t *testing.T) {
	// min -x - y, x integer in [0,3], y continuous in [0,2.5],
	// x + y <= 4.2 → x=3, y=1.2, obj=-4.2.
	p := lp.NewProblem()
	x := p.AddCol(-1, 0, 3)
	y := p.AddCol(-1, 0, 2.5)
	p.AddRow(math.Inf(-1), 4.2, []int{x, y}, []float64{1, 1})
	res, err := Solve(p, []bool{true, false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !approx(res.Obj, -4.2) || !approx(res.X[x], 3) {
		t.Fatalf("res = %+v", res)
	}
}

// TestRandomVsExhaustive cross-checks branch & bound against brute
// force over all binary assignments on random small 0-1 programs.
func TestRandomVsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(5)
		p := lp.NewProblem()
		obj := make([]float64, n)
		cols := make([]int, n)
		for j := 0; j < n; j++ {
			obj[j] = float64(rng.Intn(11) - 5)
			cols[j] = p.AddCol(obj[j], 0, 1)
		}
		A := make([][]float64, m)
		rowLo := make([]float64, m)
		rowHi := make([]float64, m)
		for r := 0; r < m; r++ {
			A[r] = make([]float64, n)
			var rc []int
			var rv []float64
			for j := 0; j < n; j++ {
				v := float64(rng.Intn(5) - 2)
				A[r][j] = v
				if v != 0 {
					rc = append(rc, j)
					rv = append(rv, v)
				}
			}
			switch rng.Intn(3) {
			case 0: // <=
				rowLo[r], rowHi[r] = math.Inf(-1), float64(rng.Intn(5)-1)
			case 1: // >=
				rowLo[r], rowHi[r] = float64(-rng.Intn(3)), math.Inf(1)
			default: // ==
				v := float64(rng.Intn(3))
				rowLo[r], rowHi[r] = v, v
			}
			p.AddRow(rowLo[r], rowHi[r], rc, rv)
		}
		res, err := Solve(p, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for r := 0; r < m && ok; r++ {
				ax := 0.0
				for j := 0; j < n; j++ {
					if mask>>j&1 == 1 {
						ax += A[r][j]
					}
				}
				if ax < rowLo[r]-1e-9 || ax > rowHi[r]+1e-9 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			v := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					v += obj[j]
				}
			}
			if v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible, solver says %v obj=%v", trial, res.Status, res.Obj)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal (best %v)", trial, res.Status, best)
		}
		if math.Abs(res.Obj-best) > 1e-4*math.Max(1, math.Abs(best)) {
			t.Fatalf("trial %d: solver obj %v, brute force %v", trial, res.Obj, best)
		}
		if !feasible(p, allInteger(p), res.X, 1e-5, nil) {
			t.Fatalf("trial %d: reported solution infeasible", trial)
		}
	}
}

func TestBoundsRestoredAfterSolve(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddCol(-1, 0, 1)
	y := p.AddCol(-1, 0, 1)
	p.AddRow(1.2, 1.2, []int{x, y}, []float64{1, 0.4})
	if _, err := Solve(p, nil, nil); err != nil {
		t.Fatal(err)
	}
	if lo, hi := p.Bounds(x); lo != 0 || hi != 1 {
		t.Fatalf("x bounds mutated: [%v,%v]", lo, hi)
	}
	if lo, hi := p.Bounds(y); lo != 0 || hi != 1 {
		t.Fatalf("y bounds mutated: [%v,%v]", lo, hi)
	}
}

func TestGapTermination(t *testing.T) {
	// A problem where the LP bound equals the integer optimum: should
	// finish at the root with zero branching nodes beyond the first.
	p := lp.NewProblem()
	cols := []int{p.AddCol(1, 0, 1), p.AddCol(2, 0, 1)}
	p.AddRow(1, 1, cols[:1], []float64{1})
	res, err := Solve(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !approx(res.Obj, 1) {
		t.Fatalf("res = %+v", res)
	}
	if res.RootObj > res.Obj+1e-9 {
		t.Fatalf("root bound %v above incumbent %v", res.RootObj, res.Obj)
	}
}

// TestSerialSearchDeterministic checks that one worker replays the
// same search: two solves of the same problem take the same nodes and
// simplex iterations to the same optimum.
func TestSerialSearchDeterministic(t *testing.T) {
	p := MultiKnapsack(40, 4, 99)
	a, err := Solve(p, nil, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, nil, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes != b.Nodes || a.LPIters != b.LPIters || a.Obj != b.Obj {
		t.Fatalf("Workers=1 search not deterministic: %+v vs %+v", a, b)
	}
}
