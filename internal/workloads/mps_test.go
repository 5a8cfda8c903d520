package workloads

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/nova"
)

// TestMPSRoundTripWorkloads enforces the MPS round-trip identity gate
// on the paper's three workload ILPs plus the MultiKnapsack scaling
// instance: exporting the allocator's integer program and re-importing
// it must reproduce a model with an identical canonical content hash,
// so an external MPS solver sees
// exactly the program the in-tree branch-and-bound solves. It also
// pins each instance's hash.
func TestMPSRoundTripWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles all three paper workloads")
	}
	type instance struct {
		name string
		m    *model.Model
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
		instances = append(instances, instance{tc.name, model.FromILP(p, mask)})
	}
	kn := mip.MultiKnapsack(60, 5, 12345)
	mask := make([]bool, kn.NumCols())
	for j := range mask {
		mask[j] = true
	}
	instances = append(instances, instance{"multiknapsack", model.FromILP(kn, mask)})

	// The cache key of each instance. A change that moves one of these
	// changes the model itself or the hash, and every cached entry with
	// it.
	wantExact := map[string]string{
		"aes":           "1d4c430c43a3c7c6f984caa43d0827a1",
		"kasumi":        "6926eff1edfa3f61654d22ea120cee12",
		"nat":           "c6c96f1e55e839ddfbc22a9676603817",
		"multiknapsack": "b9cee36a28046dcc42bff65deb791c05",
	}
	for _, ins := range instances {
		c1 := ins.m.Canonicalize()
		if c1.Exact != wantExact[ins.name] {
			t.Errorf("%s: exact hash %s, want %s", ins.name, c1.Exact, wantExact[ins.name])
		}
		var buf bytes.Buffer
		if err := ins.m.WriteMPS(&buf); err != nil {
			t.Fatalf("%s: WriteMPS: %v", ins.name, err)
		}
		m2, err := model.ReadMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadMPS: %v", ins.name, err)
		}
		c2 := m2.Canonicalize()
		if c1.Exact != c2.Exact {
			t.Fatalf("%s: round trip changed the hash: %s -> %s", ins.name, c1.Exact, c2.Exact)
		}
		t.Logf("%s: %d cols, %d rows, %d bytes, exact hash %s",
			ins.name, ins.m.LP().NumCols(), ins.m.LP().NumRows(), buf.Len(), c1.Exact)
	}
}
