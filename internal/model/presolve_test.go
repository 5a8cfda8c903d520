package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mip"
)

// TestPresolveSingletonFix: a singleton equality row pins a binary;
// presolve must fix it, drop the row, and still report the solution
// in original coordinates.
func TestPresolveSingletonFix(t *testing.T) {
	m := New()
	x := m.Binary()
	y := m.Binary()
	z := m.Binary()
	m.ObjAdd(x, 5)
	m.ObjAdd(y, -3)
	m.ObjAdd(z, -2)
	m.Term(1, x).Eq(1)             // x = 1
	m.Term(1, y).Term(-1, z).Le(0) // y <= z
	m.Term(1, y).Term(1, z).Le(2)  // slack
	res, err := m.Solve(&mip.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	// Optimum: x forced to 1 (+5), y=z=1 (-5) → 0.
	if math.Abs(res.Obj-0) > 1e-6 {
		t.Fatalf("obj = %v, want 0", res.Obj)
	}
	if got := res.X[x]; got != 1 {
		t.Fatalf("x = %v after presolve, want 1", got)
	}
	if got := res.X[y]; got != 1 {
		t.Fatalf("y = %v, want 1", got)
	}
	st := m.Stats()
	if st.Presolve == nil || st.Presolve.FixedVars < 1 || st.Presolve.DroppedRows < 1 {
		t.Fatalf("Stats().Presolve = %+v, want reductions reported", st.Presolve)
	}
}

// TestPresolveImplicationChain: fixing one binary must propagate
// through implication rows and fix the chain.
func TestPresolveImplicationChain(t *testing.T) {
	m := New()
	a := m.Binary()
	b := m.Binary()
	c := m.Binary()
	m.ObjAdd(a, -1)
	m.ObjAdd(b, -1)
	m.ObjAdd(c, -1)
	m.Term(1, a).Eq(0)             // a = 0
	m.Term(1, b).Term(-1, a).Le(0) // b <= a
	m.Term(1, c).Term(-1, b).Le(0) // c <= b
	res, err := m.Solve(&mip.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal || math.Abs(res.Obj) > 1e-9 {
		t.Fatalf("res = %+v, want optimal 0", res)
	}
	for _, v := range []int{a, b, c} {
		if got := res.X[v]; got != 0 {
			t.Fatalf("column %d = %v, want 0", v, got)
		}
	}
	st := m.Stats()
	if st.Presolve == nil || st.Presolve.FixedVars != 3 {
		t.Fatalf("Presolve = %+v, want all 3 vars fixed", st.Presolve)
	}
}

// TestPresolveInfeasible: contradictory forced binaries must be caught
// before the solver ever runs.
func TestPresolveInfeasible(t *testing.T) {
	m := New()
	x := m.Binary()
	m.Term(1, x).Eq(1)
	m.Term(1, x).Eq(0)
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

// TestPresolveFullySolved: when presolve fixes everything, Solve must
// return the complete solution without searching.
func TestPresolveFullySolved(t *testing.T) {
	m := New()
	x := m.Binary()
	y := m.Binary()
	m.ObjAdd(x, 2)
	m.ObjAdd(y, 7)
	m.Term(1, x).Eq(1)
	m.Term(1, y).Eq(1)
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal || math.Abs(res.Obj-9) > 1e-9 {
		t.Fatalf("res = %+v, want optimal 9", res)
	}
	if res.X[x] != 1 || res.X[y] != 1 {
		t.Fatalf("values not expanded: x=%v y=%v", res.X[x], res.X[y])
	}
}

// TestPresolveMatchesNoPresolve builds random models with structure
// presolve can read (pins, implications, capacities) and checks that
// presolved and raw solves agree on the objective and that the
// presolved solution is feasible for the original rows.
func TestPresolveMatchesNoPresolve(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		build := func() (*Model, []int) {
			m := New()
			n := 6 + rng.Intn(8)
			cols := make([]int, n)
			for j := 0; j < n; j++ {
				cols[j] = m.Binary()
				m.ObjAdd(cols[j], float64(rng.Intn(21)-10))
			}
			// A few pins.
			for k := 0; k < 1+rng.Intn(2); k++ {
				j := rng.Intn(n)
				m.Term(1, cols[j]).Eq(float64(rng.Intn(2)))
			}
			// Implications x <= y.
			for k := 0; k < rng.Intn(4); k++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					m.Term(1, cols[a]).Term(-1, cols[b]).Le(0)
				}
			}
			// A capacity row.
			for j := 0; j < n; j++ {
				m.Term(float64(1+rng.Intn(5)), cols[j])
			}
			m.Le(float64(n))
			return m, cols
		}
		mOn, _ := build()
		on, err := mOn.Solve(&mip.Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d on: %v", trial, err)
		}
		off, err := mOn.Solve(&mip.Options{Workers: 1, Presolve: -1})
		if err != nil {
			t.Fatalf("trial %d off: %v", trial, err)
		}
		if on.Status != off.Status {
			t.Fatalf("trial %d: status on=%v off=%v", trial, on.Status, off.Status)
		}
		if on.Status != mip.Optimal {
			continue
		}
		if math.Abs(on.Obj-off.Obj) > 1e-4*math.Max(1, math.Abs(off.Obj)) {
			t.Fatalf("trial %d: obj on=%v off=%v", trial, on.Obj, off.Obj)
		}
		if err := mOn.CheckFeasible(on.X, 1e-6); err != nil {
			t.Fatalf("trial %d: presolved solution infeasible on original rows: %v", trial, err)
		}
	}
}

// TestPresolveValueRoundTrip solves the same model with and without
// presolve and checks that the two optima agree on the objective and
// that a presolve-fixed variable reads back in original coordinates.
func TestPresolveValueRoundTrip(t *testing.T) {
	m := New()
	n := 8
	cols := make([]int, n)
	for j := 0; j < n; j++ {
		cols[j] = m.Binary()
		m.ObjAdd(cols[j], float64(-(j + 1)))
	}
	m.Term(1, cols[2]).Eq(1)
	m.Term(1, cols[5]).Term(-1, cols[2]).Le(0)
	for j := 0; j < n; j++ {
		m.Term(2, cols[j])
	}
	m.Le(9) // at most 4 ones
	on, err := m.Solve(&mip.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	off, err := m.Solve(&mip.Options{Workers: 1, Presolve: -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(on.Obj-off.Obj) > 1e-6 {
		t.Fatalf("obj on=%v off=%v", on.Obj, off.Obj)
	}
	if got := on.X[cols[2]]; got != 1 {
		t.Fatalf("v[2] = %v through presolve remap, want 1", got)
	}
	if len(on.X) != n {
		t.Fatalf("solution length %d, want original dimension %d", len(on.X), n)
	}
	// Presolve disabled must clear the stats marker.
	if st := m.Stats(); st.Presolve != nil {
		t.Fatalf("Stats().Presolve = %+v after presolve-off solve, want nil", st.Presolve)
	}
}
