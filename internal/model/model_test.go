package model

import (
	"math"
	"testing"
)

// TestFig2Example reproduces the modeling example of Figure 2: sets
// T = {t1 t2}, R = {r1 r2 r3}, var x{T,R}, costs {t1: 3, t2: 4}, and
// the generated equations sum_r x[t,r] = cost[t] (here as an
// illustrative instantiation of a model template with data). The
// generated rows are checked column by column.
func TestFig2Example(t *testing.T) {
	T := []string{"t1", "t2"}
	R := []string{"r1", "r2", "r3"}
	cost := map[string]float64{"t1": 3, "t2": 4}

	// build instantiates the template, capping each cost at limit;
	// x[ti][ri] is the column of x[T[ti], R[ri]].
	build := func(limit float64) (*Model, [][]int) {
		m := New()
		x := make([][]int, len(T))
		for ti, tt := range T {
			for range R {
				x[ti] = append(x[ti], m.Binary())
				m.Term(1, x[ti][len(x[ti])-1])
			}
			m.Eq(math.Min(cost[tt], limit))
		}
		return m, x
	}
	m, x := build(math.Inf(1))
	st := m.Stats()
	if st.Vars != 6 || st.Constraints != 2 || st.Nonzeros != 6 {
		t.Fatalf("stats = %+v, want 6 vars (x{T,R}), 2 rows, 6 nonzeros", st)
	}
	for ti, tt := range T {
		lo, hi := m.LP().RowBounds(ti)
		if lo != cost[tt] || hi != cost[tt] {
			t.Fatalf("row %d bounds [%g, %g], want = %g", ti, lo, hi, cost[tt])
		}
		for ri := range R {
			col := m.LP().Col(x[ti][ri])
			if len(col) != 1 || col[0].Row != ti || col[0].Val != 1 {
				t.Fatalf("x[%s,%s] (column %d) = %+v, want 1 in row %d only", tt, R[ri], x[ti][ri], col, ti)
			}
		}
	}
	// cost[t2] = 4 > |R| = 3: infeasible in binaries — relax t2 to 3.
	m2, x2 := build(3)
	res, err := m2.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.String() != "optimal" {
		t.Fatalf("status = %v", res.Status)
	}
	// t1 uses exactly 3 of its 3 slots.
	sum := 0.0
	for _, c := range x2[0] {
		sum += res.X[c]
	}
	if math.Abs(sum-3) > 1e-6 {
		t.Fatalf("t1 row sum = %v", sum)
	}
}

// TestColumnsAppendFresh: every Binary and Continuous call appends a
// new column, in call order, with its own bounds and integrality.
func TestColumnsAppendFresh(t *testing.T) {
	m := New()
	a := m.Binary()
	b := m.Binary()
	c := m.Continuous(-1, 2.5)
	if a != 0 || b != 1 || c != 2 || m.Stats().Vars != 3 {
		t.Fatalf("columns %d, %d, %d of %d, want 0, 1, 2 of 3", a, b, c, m.Stats().Vars)
	}
	if lo, hi := m.LP().Bounds(c); lo != -1 || hi != 2.5 {
		t.Fatalf("continuous bounds [%g, %g]", lo, hi)
	}
	if mask := m.IntegerMask(); !mask[a] || !mask[b] || mask[c] {
		t.Fatalf("integer mask = %v", mask)
	}
}

// TestExprCompaction: a row's repeated column is merged into one
// coefficient, the next row starts empty, and a column made while a
// row is open can join it.
func TestExprCompaction(t *testing.T) {
	m := New()
	x := m.Binary()
	y := m.Binary()
	m.Term(1, x).Term(2, x).Term(1, y).Eq(3)
	m.Term(1, y)
	z := m.Binary()
	m.Term(1, z).Term(-1, y).Le(1) // y cancels: z <= 1
	if r0, r1 := m.LP().Row(0), m.LP().Row(1); len(r0) != 2 || r0[0].Val != 3 || r0[1].Val != 1 ||
		len(r1) != 1 || r1[0].Col != z {
		t.Fatalf("rows %+v and %+v, want 3x + y and z", r0, r1)
	}
	// 3x + y = 3 with binaries: x=1, y=0.
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.X[x] != 1 || res.X[y] != 0 {
		t.Fatalf("x=%v y=%v", res.X[x], res.X[y])
	}
}

func TestObjective(t *testing.T) {
	m := New()
	a := m.Binary()
	b := m.Binary()
	m.ObjAdd(a, 5)
	m.ObjAdd(b, 2)
	m.Term(1, a).Term(1, b).Ge(1)
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Obj-2) > 1e-6 || res.X[b] != 1 {
		t.Fatalf("res = %+v", res)
	}
	if st := m.Stats(); st.ObjTerms != 2 {
		t.Fatalf("obj terms = %d", st.ObjTerms)
	}
}

func TestContinuousMix(t *testing.T) {
	m := New()
	x := m.Binary()
	s := m.Continuous(0, 10)
	m.ObjAdd(s, 1)
	m.ObjAdd(x, 1)
	// s + 2x >= 1.5 → either x=1 (cost 1), or s=1.5 (cost 1.5). Pick x.
	m.Term(1, s).Term(2, x).Ge(1.5)
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Obj-1) > 1e-6 || res.X[x] != 1 {
		t.Fatalf("res = %+v, x = %v", res, res.X[x])
	}
}
