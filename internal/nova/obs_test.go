package nova

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// obsTestSrc exercises every pipeline phase, including a real ILP
// solve, while staying small enough for a fast test.
const obsTestSrc = `
layout hdr = { tag : 8, len : 24 };
fun main(p: word, q: word) -> word {
  let u = unpack[hdr](p);
  let s = u.tag + u.len;
  let t = s * q;
  if (t > p) t - p else p - t
}`

// compileNodes runs the pipeline single-threaded (deterministic tree
// search) and returns the solver's node count.
func compileNodes(t *testing.T) int {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = 1
	comp, err := Compile("obs.nova", obsTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return comp.Alloc.MIP.Nodes
}

// TestTraceCoversCompile checks the -trace contract: with a recorder
// installed, a compile produces spans, the phase/compile span covers
// at least 95% of the recorded window, and WriteTrace emits valid
// Chrome trace_event JSON containing it. The window opens before the
// span and closes after it, so the program is NAT (about 40 ms): its
// 5% allowance (about 2 ms) outlasts a preemption or GC pause in
// those gaps, which a sub-millisecond compile's does not.
func TestTraceCoversCompile(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	rec := obs.Start("test compile")
	_, err := Compile("nat.nova", workloads.NATSource, opts)
	obs.Stop()
	if err != nil {
		t.Fatal(err)
	}

	var total, window int64
	for _, st := range rec.SpanTotals() {
		if st.Name == "phase/compile" {
			total = st.Total.Microseconds()
		}
	}
	window = rec.Duration().Microseconds()
	if total == 0 {
		t.Fatal("no phase/compile span recorded")
	}
	if window == 0 {
		t.Fatal("recorder window is empty")
	}
	if float64(total) < 0.95*float64(window) {
		t.Errorf("phase/compile covers %dµs of %dµs window (<95%%)", total, window)
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	found := false
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" && e.Name == "phase/compile" {
			found = true
		}
	}
	if !found {
		t.Error("trace JSON has no phase/compile X event")
	}
}

// TestObsDoesNotPerturbSearch checks the contract's passivity clause:
// the solver explores the identical tree whether or not a recorder is
// installed.
func TestObsDoesNotPerturbSearch(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("recorder unexpectedly installed at test start")
	}
	plain := compileNodes(t)

	obs.Start("perturbation check")
	traced := compileNodes(t)
	obs.Stop()

	if plain != traced {
		t.Errorf("node count changed under observation: %d disabled, %d enabled", plain, traced)
	}
}
