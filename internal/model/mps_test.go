package model

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/mip"
)

// roundTrip exports m, re-imports it, and fails unless the canonical
// content hash is identical.
func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteMPS(&buf); err != nil {
		t.Fatalf("WriteMPS: %v", err)
	}
	m2, err := ReadMPS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadMPS: %v\nfile:\n%s", err, buf.String())
	}
	c1, c2 := m.Canonicalize(), m2.Canonicalize()
	if c1.Exact != c2.Exact {
		t.Fatalf("round trip changed the model: exact %s -> %s\nfile:\n%s",
			c1.Exact, c2.Exact, buf.String())
	}
	return m2
}

func TestMPSRoundTripKnapsack(t *testing.T) {
	p := mip.MultiKnapsack(16, 4, 3)
	mask := make([]bool, p.NumCols())
	for i := range mask {
		mask[i] = true
	}
	m := FromILP(p, mask)
	m2 := roundTrip(t, m)
	// The imported model must also solve to the same optimum.
	opts := &mip.Options{Time: time.Minute}
	r1, err := m.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != mip.Optimal || r2.Status != mip.Optimal {
		t.Fatalf("statuses %v / %v, want Optimal", r1.Status, r2.Status)
	}
	if math.Abs(r1.Obj-r2.Obj) > 1e-9 {
		t.Fatalf("imported optimum %g != original %g", r2.Obj, r1.Obj)
	}
}

// TestMPSRoundTripAwkward covers the cases a naive emitter gets wrong:
// floats with no short decimal form, negative and infinite bounds,
// fixed and free variables, ranged and free rows, interleaved integer
// columns, and a column that appears in no row.
func TestMPSRoundTripAwkward(t *testing.T) {
	m := New()
	x := m.Binary()
	y := m.Continuous(-lp.Inf, lp.Inf)
	z := m.Continuous(1.0/3.0, 12345678901234567.0)
	w := m.Continuous(-5.25, -5.25) // fixed
	u := m.Binary()
	v := m.Continuous(2, 5) // in no row: declaration-only
	_ = v
	neg := m.Continuous(-lp.Inf, -0.1)
	m.ObjAdd(x, 0.1)
	m.ObjAdd(y, -1.0/7.0)
	m.ObjAdd(z, 1e-17)
	m.ObjAdd(neg, 3)
	m.Term(1, x).Term(0.3, y).Term(1e17, z).Le(1e17)
	m.Term(2, y).Term(-1, w).Ge(-100)
	m.Term(1, u).Term(1, x).Eq(1)
	// Ranged and free rows are not expressible through Le/Ge/Eq.
	m.LP().AddRow(1.25, 7.5, []int{y, z}, []float64{1, 1})
	m.LP().AddRow(math.Inf(-1), math.Inf(1), []int{x, y}, []float64{1, 1})

	m2 := roundTrip(t, m)
	if got, want := m2.LP().NumCols(), m.LP().NumCols(); got != want {
		t.Fatalf("imported %d columns, want %d", got, want)
	}
	if got, want := m2.LP().NumRows(), m.LP().NumRows(); got != want {
		t.Fatalf("imported %d rows, want %d", got, want)
	}
}

// TestMPSDeterministic: exporting isomorphic models built in different
// declaration orders yields byte-identical files (canonical naming).
func TestMPSDeterministic(t *testing.T) {
	build := func(flip bool) *Model {
		m := New()
		var a, b int
		if flip {
			b = m.Binary()
			a = m.Binary()
		} else {
			a = m.Binary()
			b = m.Binary()
		}
		m.ObjAdd(a, 2)
		m.ObjAdd(b, 3)
		m.Term(1, a).Term(2, b).Le(2)
		return m
	}
	var f1, f2 bytes.Buffer
	if err := build(false).WriteMPS(&f1); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteMPS(&f2); err != nil {
		t.Fatal(err)
	}
	if f1.String() != f2.String() {
		t.Fatalf("export is declaration-order dependent:\n%s\nvs\n%s", f1.String(), f2.String())
	}
}

func TestMPSWriteRejectsBadModels(t *testing.T) {
	m := New()
	x := m.Binary()
	m.ObjAdd(x, math.Inf(1))
	var buf bytes.Buffer
	if err := m.WriteMPS(&buf); err == nil {
		t.Fatal("infinite objective coefficient exported without error")
	}
}

func TestMPSReadErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "mps:"},
		{"no endata", "ROWS\n N OBJ\n", "ENDATA"},
		{"dup row", "ROWS\n N OBJ\n L C1\n L C1\nENDATA\n", "duplicate row"},
		{"unknown row type", "ROWS\n Q C1\nENDATA\n", "row type"},
		{"unknown section", "JUNK\nENDATA\n", "unknown section"},
		{"data before section", " L C1\nENDATA\n", "before any section"},
		{"dup coefficient", "ROWS\n N OBJ\n L C1\nCOLUMNS\n X1 C1 1\n X1 C1 2\nENDATA\n", "duplicate coefficient"},
		{"unknown row ref", "ROWS\n N OBJ\nCOLUMNS\n X1 C9 1\nENDATA\n", "unknown row"},
		{"bad number", "ROWS\n N OBJ\n L C1\nCOLUMNS\n X1 C1 huh\nENDATA\n", "bad number"},
		{"nan", "ROWS\n N OBJ\n L C1\nCOLUMNS\n X1 C1 NaN\nENDATA\n", "non-finite"},
		{"missing rhs row", "ROWS\n N OBJ\n L C1\nCOLUMNS\n X1 C1 1\nRHS\n RHS C9 4\nENDATA\n", "unknown row"},
		{"dup rhs", "ROWS\n N OBJ\n L C1\nCOLUMNS\n X1 C1 1\nRHS\n RHS C1 4\n RHS C1 4\nENDATA\n", "duplicate RHS"},
		{"obj rhs", "ROWS\n N OBJ\nCOLUMNS\n X1 OBJ 1\nRHS\n RHS OBJ 4\nENDATA\n", "objective"},
		{"range on free", "ROWS\n N OBJ\n N F1\nCOLUMNS\n X1 F1 1\nRANGES\n RNG F1 2\nENDATA\n", "free row"},
		{"bound undeclared", "ROWS\n N OBJ\nCOLUMNS\nBOUNDS\n UP BND X9 3\nENDATA\n", "undeclared column"},
		{"bad bound type", "ROWS\n N OBJ\nCOLUMNS\n X1 OBJ 1\nBOUNDS\n ZZ BND X1 3\nENDATA\n", "bound type"},
		{"empty bounds", "ROWS\n N OBJ\nCOLUMNS\n X1 OBJ 1\nBOUNDS\n UP BND X1 -3\nENDATA\n", "empty bound"},
		{"no obj row", "ROWS\n L C1\nCOLUMNS\n X1 C1 1\nENDATA\n", "objective"},
		{"maximize", "OBJSENSE\n MAX\nROWS\n N OBJ\nENDATA\n", "maximization"},
		{"data after endata", "ROWS\n N OBJ\nENDATA\n X1 OBJ 1\n", "after ENDATA"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadMPS(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("no error for %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMPSReadAcceptsVariants: reader tolerances the writer never
// needs — set-name-free RHS lines, lowercase row types, multiple
// pairs per line, BV bounds.
func TestMPSReadAcceptsVariants(t *testing.T) {
	in := `* comment
NAME          TEST
ROWS
 n obj
 l c1
 g c2
COLUMNS
 x1 c1 1 c2 1
 x1 obj -1
 x2 c1 2
RHS
 c1 4
 RHSSET c2 1
BOUNDS
 BV BNDSET x1
 UP x2 3
ENDATA
`
	m, err := ReadMPS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.LP().NumCols() != 2 || m.LP().NumRows() != 2 {
		t.Fatalf("got %d cols %d rows, want 2/2", m.LP().NumCols(), m.LP().NumRows())
	}
	if !m.IntegerMask()[0] || m.IntegerMask()[1] {
		t.Fatalf("integer mask %v, want BV on x1 only", m.IntegerMask())
	}
	res, err := m.Solve(&mip.Options{Time: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-(-1)) > 1e-9 {
		t.Fatalf("obj %g, want -1 (x1=1 within c1<=4, c2>=1)", res.Obj)
	}
}
