package repro

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/nova"
)

// serveHook serves a pre-verified solution into the allocator solve.
type serveHook struct {
	x   []float64
	err error
}

func (h *serveHook) BeforeSolve(m *model.Model) ([]float64, bool) {
	if err := m.CheckFeasible(h.x, 1e-6); err != nil {
		h.err = fmt.Errorf("imported solution infeasible on rebuilt model: %w", err)
		return nil, false
	}
	return h.x, true
}

func (h *serveHook) AfterSolve(m *model.Model, res *mip.Result) {}

// TestMPSBridgeNAT checks the MPS bridge end to end (DESIGN.md §14):
// NAT's allocation ILP is exported in fixed MPS format and re-imported
// with an identical canonical hash; the imported model is solved (as an
// external MPS solver would), its solution is mapped back through the
// canonical column order and served into a recompile of NAT, and that
// recompile must behave bit-identically to the direct compile on the
// simulator.
func TestMPSBridgeNAT(t *testing.T) {
	if testing.Short() {
		t.Skip("two full compiles of the NAT workload")
	}
	comp, wantRet, wantMem, _ := natRun(t, nil)

	p, mask := comp.Alloc.ModelLP()
	if p == nil {
		t.Fatal("allocation carries no model")
	}
	m := model.FromILP(p, mask)
	var buf bytes.Buffer
	if err := m.WriteMPS(&buf); err != nil {
		t.Fatalf("WriteMPS: %v", err)
	}
	m2, err := model.ReadMPS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	c1, c2 := m.Canonicalize(), m2.Canonicalize()
	if c1.Exact != c2.Exact {
		t.Fatalf("round trip changed the canonical hash: %s -> %s", c1.Exact, c2.Exact)
	}

	// Solve the imported model — standing in for an external MPS
	// solver — and check it reaches the same optimum as the original.
	// The default 1e-4 gap would let the two solves stop at different
	// incumbents up to ~2e-4 apart, so both prove a gap well inside the
	// 1e-6 the check asserts.
	ref, err := m.Solve(&mip.Options{Time: 4 * time.Minute, Gap: 1e-9})
	if err != nil {
		t.Fatalf("solve original: %v", err)
	}
	imp, err := m2.Solve(&mip.Options{Time: 4 * time.Minute, Gap: 1e-9})
	if err != nil {
		t.Fatalf("solve imported: %v", err)
	}
	if ref.Status != mip.Optimal || imp.Status != mip.Optimal {
		t.Fatalf("statuses %v / %v, want optimal", ref.Status, imp.Status)
	}
	if math.Abs(ref.Obj-imp.Obj) > 1e-6 {
		t.Fatalf("imported optimum %g != original %g", imp.Obj, ref.Obj)
	}

	// The MPS file declares columns in canonical order, so imported
	// column i is original column ColOrder[i].
	xOrig := make([]float64, len(imp.X))
	for i, v := range imp.X {
		xOrig[c1.ColOrder[i]] = v
	}
	if err := m.CheckFeasible(xOrig, 1e-6); err != nil {
		t.Fatalf("mapped solution infeasible: %v", err)
	}

	hook := &serveHook{x: xOrig}
	_, gotRet, gotMem, _ := natRun(t, func(o *nova.Options) { o.Alloc.Hook = hook })
	if hook.err != nil {
		t.Fatal(hook.err)
	}
	if gotRet != wantRet {
		t.Fatalf("served compile result %#x, direct result %#x", gotRet, wantRet)
	}
	for i := range wantMem {
		if gotMem[i] != wantMem[i] {
			t.Fatalf("served compile sdram[%#x] = %#x, direct %#x", i, gotMem[i], wantMem[i])
		}
	}
}
