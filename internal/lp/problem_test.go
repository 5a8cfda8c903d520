package lp

import (
	"slices"
	"testing"
)

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", label)
		}
	}()
	f()
}

// TestFrozenMatrix checks the frozen-matrix contract: rows list their
// columns ascending and columns their rows in insertion order; rows
// added within what Grow reserved stay in its store; the matrix cannot
// grow after a solve; a clone's Col and Row share the
// original's storage; and concurrent first solves of a never-solved
// Problem and of clones taken while they run (run under -race) agree
// bit for bit with a solve of the same problem built apart.
func TestFrozenMatrix(t *testing.T) {
	p := NewProblem()
	p.Grow(4, 2, 6)
	store := &p.a.rnz[:1][0]
	for j := 0; j < 4; j++ {
		p.AddCol(1, 0, 1)
	}
	p.AddRow(1, 2, []int{3, 0, 2, 0}, []float64{4, 1, 3, 2})
	p.AddRow(0, 1, []int{2, 1}, []float64{5, 0})
	if &p.a.rnz[0] != store {
		t.Fatal("AddRow reallocated a row store that Grow reserved")
	}
	if got := p.Row(0); !slices.Equal(got, []RowNz{{0, 1}, {0, 2}, {2, 3}, {3, 4}}) {
		t.Fatalf("row 0 = %v, want columns ascending, repeats in the order given", got)
	}
	if got := p.Col(2); !slices.Equal(got, []Nz{{0, 3}, {1, 5}}) {
		t.Fatalf("column 2 = %v, want rows 0 and 1 in order", got)
	}
	if p.NumNonzeros() != 5 {
		t.Fatalf("%d nonzeros, want 5 (the zero coefficient is dropped)", p.NumNonzeros())
	}

	q := buildAssignment(8, 7)
	want, err := q.Solve(nil)
	if err != nil || want.Status != Optimal {
		t.Fatalf("solve: %v %v", want, err)
	}
	mustPanic(t, "AddRow after Solve", func() { q.AddRow(0, 1, []int{0}, []float64{1}) })
	mustPanic(t, "AddCol after Solve", func() { q.AddCol(0, 0, 1) })
	mustPanic(t, "Grow after Solve", func() { q.Grow(1, 1, 1) })
	c := q.Clone()
	for j := 0; j < q.NumCols(); j++ {
		if &c.Col(j)[0] != &q.Col(j)[0] {
			t.Fatalf("the clone's column %d is a copy", j)
		}
	}
	for r := 0; r < q.NumRows(); r++ {
		if &c.Row(r)[0] != &q.Row(r)[0] {
			t.Fatalf("the clone's row %d is a copy", r)
		}
	}

	fresh := buildAssignment(8, 7)
	type result struct {
		sol *Solution
		err error
	}
	results := make(chan result, 8)
	for g := 0; g < 8; g++ {
		go func() {
			s := fresh
			if g%2 == 1 {
				s = fresh.Clone()
			}
			sol, err := s.Solve(nil)
			results <- result{sol, err}
		}()
	}
	for g := 0; g < 8; g++ {
		r := <-results
		sameSolve(t, "concurrent first solve", r.sol, want, r.err, nil)
	}
}
