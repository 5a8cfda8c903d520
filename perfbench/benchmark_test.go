package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly the metrics, with the units, that the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []entry, want map[string]string) {
		seen := map[string]bool{}
		for _, e := range listed {
			if unit, ok := want[e.Name]; !ok || unit != e.Unit {
				t.Errorf("%s metric %s (%s) in BENCHMARK.json: benchmark reports unit %q", kind, e.Name, e.Unit, unit)
			}
			seen[e.Name] = true
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s metric %s missing from BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd)
	check("per-layer", bj.PerLayer, perLayerUnit)
	if len(perLayer) != len(perLayerUnit) || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics (%d distinct), want at most 128 distinct", len(perLayer), len(perLayerUnit))
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs); got != 380 { // p95: 20 samples beyond
		t.Errorf("tail of 1..400 = %v, want 380", got)
	}
	if got := tail([]float64{3, 1, 2}); got != 3 {
		t.Errorf("tail of three samples = %v, want the maximum 3", got)
	}
}
