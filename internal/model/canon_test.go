package model

import (
	"math"
	"math/rand"
	"testing"
)

// buildPacking constructs a small set-packing-flavored ILP. The perm
// slice reorders column creation, so two calls can build the same
// mathematical model with different column indexes.
func buildPacking(perm []int) *Model {
	m := New()
	n := len(perm)
	cols := make([]int, n)
	for _, j := range perm {
		cols[j] = m.Binary()
		m.ObjAdd(cols[j], float64(3+j%5))
	}
	for r := 0; r < n-2; r++ {
		m.Term(1, cols[r]).Term(1, cols[r+1]).Term(1, cols[r+2]).Le(2) // pack
	}
	for _, c := range cols {
		m.Term(1, c)
	}
	m.Ge(2) // cover
	return m
}

func ident(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestCanonSameModelTwice(t *testing.T) {
	a := buildPacking(ident(9)).Canonicalize()
	b := buildPacking(ident(9)).Canonicalize()
	if a.Exact != b.Exact {
		t.Fatalf("same model hashed differently:\n%+v\n%+v", a, b)
	}
}

func TestCanonReorderInvariant(t *testing.T) {
	a := buildPacking(ident(9)).Canonicalize()
	perm := ident(9)
	rand.New(rand.NewSource(3)).Shuffle(len(perm), func(i, j int) {
		perm[i], perm[j] = perm[j], perm[i]
	})
	b := buildPacking(perm).Canonicalize()
	if a.Exact != b.Exact {
		t.Fatalf("exact hash changed under reorder: %s vs %s", a.Exact, b.Exact)
	}
}

func TestCanonBoundEditChangesExact(t *testing.T) {
	m := buildPacking(ident(9))
	a := m.Canonicalize()
	m.LP().SetBounds(4, 0, 0) // fix one variable
	b := m.Canonicalize()
	if a.Exact == b.Exact {
		t.Fatalf("bound edit left the exact hash unchanged: %s", a.Exact)
	}
}

func TestCanonObjectiveEditChangesExact(t *testing.T) {
	m := buildPacking(ident(9))
	a := m.Canonicalize()
	m.ObjAdd(2, 7.5)
	b := m.Canonicalize()
	if a.Exact == b.Exact {
		t.Fatalf("objective edit left the exact hash unchanged: %s", a.Exact)
	}
}

func TestCanonOrdersTranslateSolutions(t *testing.T) {
	// The canonical orders of two isomorphic models must map a feasible
	// point of one onto a feasible point of the other.
	a := buildPacking(ident(9))
	perm := ident(9)
	rand.New(rand.NewSource(11)).Shuffle(len(perm), func(i, j int) {
		perm[i], perm[j] = perm[j], perm[i]
	})
	b := buildPacking(perm)
	ca, cb := a.Canonicalize(), b.Canonicalize()
	if ca.Exact != cb.Exact {
		t.Fatalf("isomorphic models hash differently")
	}
	ra, err := a.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(ra.X))
	for i := range cb.ColOrder {
		x[cb.ColOrder[i]] = ra.X[ca.ColOrder[i]]
	}
	if err := b.CheckFeasible(x, 1e-6); err != nil {
		t.Fatalf("translated optimum infeasible in isomorphic model: %v", err)
	}
	if got, want := b.Objective(x), a.Objective(ra.X); got != want {
		t.Fatalf("translated objective %g, want %g", got, want)
	}
}

func TestCheckFeasibleRejects(t *testing.T) {
	m := buildPacking(ident(9))
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckFeasible(res.X, 1e-6); err != nil {
		t.Fatalf("optimal point rejected: %v", err)
	}
	bad := append([]float64(nil), res.X...)
	bad[0] += 0.5 // fractional
	if err := m.CheckFeasible(bad, 1e-6); err == nil {
		t.Fatal("fractional integer column accepted")
	}
	bad[0] = 3 // integral but out of bounds
	if err := m.CheckFeasible(bad, 1e-6); err == nil {
		t.Fatal("out-of-bounds value accepted")
	}
	bad[0] = math.NaN() // NaN fails every comparison it takes part in
	if err := m.CheckFeasible(bad, 1e-6); err == nil {
		t.Fatal("NaN value accepted")
	}
	if err := m.CheckFeasible(res.X[:4], 1e-6); err == nil {
		t.Fatal("short point accepted")
	}
	ones := make([]float64, len(res.X))
	for i := range ones {
		ones[i] = 1 // violates every pack row
	}
	if err := m.CheckFeasible(ones, 1e-6); err == nil {
		t.Fatal("row-violating point accepted")
	}
}
