package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
)

// The traced run installs an obs.Recorder, wraps each call the
// benchmark makes into a layer's public function in a bench/ span, and
// collects the phase/, mip/ and server/ spans the program already
// emits. A layer's self time is the time its spans cover minus the
// time their child spans cover.

// span is one completed span of the trace, times in milliseconds from
// the recorder's start.
type span struct {
	name       string
	tid        int
	start, dur float64
}

func (s span) end() float64 { return s.start + s.dur }

// layers are the names self times are reported under, in report order.
// bench (the benchmark's own code, the HTTP client and transport) and
// nova (the nova.Compile facade around the phases) are no layer of the
// system; their self time is the accounting residual.
var layers = []string{"bench", "nova", "frontend", "core", "cache", "model", "lp", "mip", "asm", "server", "ixp", "fleet", "pktgen"}

// layerOf maps a span name to the layer whose code it times.
func layerOf(name string) string {
	switch name {
	case "phase/compile":
		return "nova"
	case "phase/parse", "phase/typecheck", "phase/cps", "phase/opt", "phase/ssu", "phase/isel":
		return "frontend"
	case "phase/alloc/cache":
		return "cache"
	case "phase/emit":
		return "asm"
	case "mip/presolve", "bench/canonicalize":
		return "model"
	case "mip/root_lp":
		return "lp"
	case "bench/handler", "server/compile":
		return "server"
	case "bench/chip_run":
		return "ixp"
	case "bench/stage", "bench/collect":
		return "fleet"
	case "bench/gen":
		return "pktgen"
	}
	switch {
	case strings.HasPrefix(name, "phase/"):
		return "core"
	case strings.HasPrefix(name, "mip/"):
		return "mip"
	}
	return "bench"
}

// parentOf names the span that encloses a span of the given name. Names
// are unique per layer boundary, so the hierarchy is by name and holds
// even when concurrent requests interleave their spans on one track.
// compileParent is the span a workload wraps nova.Compile in
// (bench/compile, or server/compile inside novad's handler).
func parentOf(name, compileParent string) string {
	switch {
	case name == "phase/compile":
		return compileParent
	case name == "server/compile":
		return "bench/handler"
	case name == "bench/handler":
		return "bench/request"
	case name == "bench/gen", name == "bench/stage", name == "bench/chip_run", name == "bench/collect":
		return "bench/solo_loop"
	case name == "mip/worker":
		return "mip/search"
	case strings.HasPrefix(name, "phase/alloc/"):
		return "phase/alloc"
	case strings.HasPrefix(name, "phase/"):
		return "phase/compile"
	case strings.HasPrefix(name, "mip/"):
		return "phase/alloc/solve"
	}
	return ""
}

// stopTrace stops rec, writes its spans and counter deltas as Chrome
// trace JSON under the state directory, and returns the spans.
func stopTrace(b *bench, rec *obs.Recorder) ([]span, error) {
	obs.Stop()
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(stateDir, fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		return nil, fmt.Errorf("reading back %s: %w", path, err)
	}
	var spans []span
	for _, e := range f.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, span{name: e.Name, tid: e.Tid, start: e.Ts / 1e3, dur: e.Dur / 1e3})
		}
	}
	return spans, nil
}

// within returns the spans that lie inside [from, to].
func within(spans []span, from, to float64) []span {
	var out []span
	for _, s := range spans {
		if s.start >= from && s.end() <= to {
			out = append(out, s)
		}
	}
	return out
}

// spanTotals sums span durations by name.
func spanTotals(spans []span) map[string]float64 {
	t := map[string]float64{}
	for _, s := range spans {
		t[s.name] += s.dur
	}
	return t
}

// selfTimes returns each layer's self time over the spans that descend
// from root: each span name's total minus its children's totals,
// summed by layer.
func selfTimes(spans []span, root, compileParent string) map[string]float64 {
	totals := spanTotals(spans)
	rootOf := func(name string) string {
		for {
			p := parentOf(name, compileParent)
			if p == "" {
				return name
			}
			name = p
		}
	}
	self := map[string]float64{}
	for name, t := range totals {
		if rootOf(name) != root {
			continue
		}
		self[layerOf(name)] += t
		if p := parentOf(name, compileParent); p != "" {
			self[layerOf(p)] -= t
		}
	}
	return self
}

// reportLayers sets the self_ms.* metrics and accounting.residual_pct,
// the share of the end-to-end time e2eMS that no layer of the system
// accounts for: the self time of bench and nova. A residual above
// maxPct, or a layer with negative self time, is a failed check.
func reportLayers(b *bench, self map[string]float64, e2eMS, maxPct float64) {
	for _, layer := range layers {
		b.set("self_ms."+layer, self[layer])
		b.check(self[layer] > -0.01*e2eMS, "layer %s has negative self time %.3f ms", layer, self[layer])
	}
	residual := 100 * (self["bench"] + self["nova"]) / e2eMS
	b.set("accounting.residual_pct", residual)
	b.check(residual <= maxPct, "%.1f ms of %.1f ms is in no layer (residual %.2f%% > %g%%)",
		self["bench"]+self["nova"], e2eMS, residual, maxPct)
}

// setSpanMetrics sets the <name>_ms metrics of the pipeline spans from
// span totals, with suffix appended to each name (".aes" or "").
func setSpanMetrics(b *bench, totals map[string]float64, suffix string) {
	for _, name := range []string{
		"phase/parse", "phase/typecheck", "phase/cps", "phase/opt", "phase/ssu", "phase/isel",
		"phase/alloc/graph", "phase/alloc/model", "phase/alloc/extract", "phase/alloc/cache",
		"phase/verify", "phase/assign", "phase/emit",
		"mip/presolve", "mip/root_lp", "mip/search", "mip/cut_loop",
	} {
		metric := strings.ReplaceAll(name, "/", ".") + "_ms" + suffix
		if _, ok := perLayerUnit[metric]; ok {
			b.set(metric, totals[name])
		}
	}
}

// setCounterMetrics sets the per-layer count metrics from obs counter
// deltas, with suffix appended to each name.
func setCounterMetrics(b *bench, d obs.Snapshot, suffix string) {
	for _, name := range []string{
		"mip/presolve/dropped_rows", "mip/presolve/fixed_vars",
		"lp/iterations", "lp/degenerate_pivots", "lp/dual_iterations", "lp/refactorizations", "lp/solves",
		"mip/nodes", "mip/incumbents", "mip/heuristic_calls",
		"cache/validation_drops", "cache/evictions", "server/queue_full",
		"ixp/instrs", "ixp/cycles", "ixp/stall_cycles", "ixp/port_wait_cycles", "ixp/sram_refs",
		"fleet/batches",
	} {
		metric := strings.ReplaceAll(name, "/", ".") + suffix
		if _, ok := perLayerUnit[metric]; ok {
			b.set(metric, float64(d[name]))
		}
	}
}
