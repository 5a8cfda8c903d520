package model

import (
	"math"
	"testing"
)

// TestFig2Example reproduces the modeling example of Figure 2: sets
// T = {t1 t2}, R = {r1 r2 r3}, var x{T,R}, costs {t1: 3, t2: 4}, and
// the generated equations sum_r x[t,r] = cost[t] (here as an
// illustrative instantiation of a model template with data).
func TestFig2Example(t *testing.T) {
	T := []string{"t1", "t2"}
	R := []string{"r1", "r2", "r3"}
	cost := map[string]float64{"t1": 3, "t2": 4}

	m := New()
	for _, tt := range T {
		e := NewExpr()
		for _, r := range R {
			e.Add(1, m.Binary("x", tt, r))
		}
		m.Eq("row_sum", e, cost[tt])
	}
	st := m.Stats()
	if st.Vars != 6 {
		t.Fatalf("vars = %d, want 6 (x{T,R})", st.Vars)
	}
	if st.Constraints != 2 || st.Templates["row_sum"] != 2 {
		t.Fatalf("constraints = %+v", st)
	}
	// cost[t2] = 4 > |R| = 3: infeasible in binaries — relax t2 to 3.
	m2 := New()
	for _, tt := range T {
		e := NewExpr()
		for _, r := range R {
			e.Add(1, m2.Binary("x", tt, r))
		}
		rhs := cost[tt]
		if rhs > 3 {
			rhs = 3
		}
		m2.Eq("row_sum", e, rhs)
	}
	res, err := m2.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.String() != "optimal" {
		t.Fatalf("status = %v", res.Status)
	}
	// t1 uses exactly 3 of its 3 slots.
	sum := 0.0
	for _, r := range R {
		sum += m2.Value(res, "x", "t1", r)
	}
	if math.Abs(sum-3) > 1e-6 {
		t.Fatalf("t1 row sum = %v", sum)
	}
}

func TestGetOrCreateIdempotent(t *testing.T) {
	m := New()
	a := m.Binary("Move", "p1", "v1", "A", "B")
	b := m.Binary("Move", "p1", "v1", "A", "B")
	if a != b {
		t.Fatal("same index created two columns")
	}
	if m.FamilyCount("Move") != 1 {
		t.Fatalf("family count = %d", m.FamilyCount("Move"))
	}
	if m.Name(a) != "Move[p1,v1,A,B]" {
		t.Fatalf("name = %q", m.Name(a))
	}
}

func TestExprCompaction(t *testing.T) {
	m := New()
	x := m.Binary("x")
	y := m.Binary("y")
	e := NewExpr().Add(1, x).Add(2, x).Add(1, y)
	m.Eq("c", e, 3)
	// 3x + y = 3 with binaries: x=1, y=0.
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Value(res, "x") != 1 || m.Value(res, "y") != 0 {
		t.Fatalf("x=%v y=%v", m.Value(res, "x"), m.Value(res, "y"))
	}
}

func TestObjective(t *testing.T) {
	m := New()
	a := m.Binary("a")
	b := m.Binary("b")
	m.ObjAdd(a, 5)
	m.ObjAdd(b, 2)
	e := NewExpr().Add(1, a).Add(1, b)
	m.Ge("pick", e, 1)
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Obj-2) > 1e-6 || m.Value(res, "b") != 1 {
		t.Fatalf("res = %+v", res)
	}
	if st := m.Stats(); st.ObjTerms != 2 {
		t.Fatalf("obj terms = %d", st.ObjTerms)
	}
}

func TestContinuousMix(t *testing.T) {
	m := New()
	x := m.Binary("x")
	s := m.Continuous("s", 0, 10)
	m.ObjAdd(s, 1)
	m.ObjAdd(x, 1)
	// s + 2x >= 1.5 → either x=1 (cost 1), or s=1.5 (cost 1.5). Pick x.
	m.Ge("cover", NewExpr().Add(1, s).Add(2, x), 1.5)
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Obj-1) > 1e-6 || m.Value(res, "x") != 1 {
		t.Fatalf("res = %+v, x = %v", res, m.Value(res, "x"))
	}
}

func TestStringSummary(t *testing.T) {
	m := New()
	m.Binary("Color", "v1", "L", 0)
	m.Eq("one_color", NewExpr().Add(1, m.Binary("Color", "v1", "L", 0)), 1)
	s := m.String()
	if s == "" {
		t.Fatal("empty summary")
	}
}
