// Package obs is the repository's zero-dependency observability layer:
// span-style phase timers, monotonic counters, and gauges, shared by
// the compiler pipeline (internal/nova, internal/core), the solver
// stack (internal/lp, internal/mip, internal/model), and the IXP1200
// simulator (internal/ixp). It is the instrumentation contract that
// DESIGN.md §8 documents and that every perf PR reports against.
//
// The package has two halves with different lifecycles:
//
//   - Counters and gauges are process-global, registered once (usually
//     in a package var block) and incremented unconditionally. An
//     increment is one atomic add — goroutine-safe, allocation-free,
//     and cheap enough for solver inner loops. Readers take Snapshot
//     deltas around a region of interest, so the same counters serve
//     any number of runs in one process.
//
//   - Spans are recorded only while a Recorder is installed (Start /
//     Stop). With no recorder installed, StartSpan returns a zero Span
//     value and End does nothing: the disabled path performs a single
//     atomic pointer load and allocates nothing, which is what keeps
//     instrumented hot paths free to stay instrumented.
//
// A typical driver (cmd/novac with -trace or -stats) brackets the work:
//
//	rec := obs.Start("novac")
//	defer obs.Stop()
//	... run the pipeline (instrumented packages call obs.StartSpan) ...
//	rec.WriteTrace(f)   // Chrome trace_event JSON, for Perfetto
//	rec.WriteText(os.Stdout)
//
// Span and counter names are slash-separated with a layer prefix:
// "phase/" for compiler pipeline spans, "lp/" for the simplex, "mip/"
// for branch and bound (including presolve), "ixp/" for the simulator.
// See DESIGN.md §8 for the full naming scheme and the rules a new
// counter must follow.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// active is the installed Recorder; nil means spans are disabled.
var active atomic.Pointer[Recorder]

// Enabled reports whether a Recorder is currently installed, i.e.
// whether spans are being collected. Counters count regardless.
func Enabled() bool { return active.Load() != nil }

// Start creates a fresh Recorder named after the calling process (the
// name labels the trace in Perfetto), installs it as the active one,
// and returns it. Any previously installed Recorder is replaced; its
// already-collected spans remain readable.
func Start(name string) *Recorder {
	r := &Recorder{name: name, start: time.Now(), base: TakeSnapshot()}
	active.Store(r)
	return r
}

// Stop uninstalls the active Recorder, freezes its clock, and returns
// it (nil when none was installed). Spans still in flight when Stop is
// called are dropped rather than recorded half-open.
func Stop() *Recorder {
	r := active.Swap(nil)
	if r != nil {
		r.mu.Lock()
		r.stopped = true
		r.window = time.Since(r.start)
		r.mu.Unlock()
	}
	return r
}

// Recorder collects the spans of one observation window together with
// a counter snapshot taken at Start, so per-window counter deltas can
// be reported alongside the timeline.
type Recorder struct {
	name  string
	start time.Time
	base  Snapshot

	mu      sync.Mutex
	events  []spanEvent
	threads map[int]string
	stopped bool
	window  time.Duration
}

// spanEvent is one completed span on the recorder's timeline.
type spanEvent struct {
	name       string
	tid        int
	start, dur time.Duration
}

// Duration returns the observation window: time since Start while
// recording, frozen at the Stop call afterwards.
func (r *Recorder) Duration() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return r.window
	}
	return time.Since(r.start)
}

// CounterDeltas returns how much every counter moved since the
// Recorder was started (gauges report their current value).
func (r *Recorder) CounterDeltas() Snapshot { return Since(r.base) }

// SpanTotal aggregates every span sharing one name.
type SpanTotal struct {
	Name  string
	Count int
	Total time.Duration
}

// SpanTotals returns per-name aggregate wall time, ordered by each
// name's first appearance on the timeline (pipeline order).
func (r *Recorder) SpanTotals() []SpanTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := map[string]int{}
	var out []SpanTotal
	for _, e := range r.events {
		i, ok := idx[e.name]
		if !ok {
			i = len(out)
			idx[e.name] = i
			out = append(out, SpanTotal{Name: e.name})
		}
		out[i].Count++
		out[i].Total += e.dur
	}
	sort.SliceStable(out, func(a, b int) bool {
		return firstStart(r.events, out[a].Name) < firstStart(r.events, out[b].Name)
	})
	return out
}

// firstStart finds the earliest start of any span with the given name.
func firstStart(events []spanEvent, name string) time.Duration {
	min := time.Duration(1<<63 - 1)
	for _, e := range events {
		if e.name == name && e.start < min {
			min = e.start
		}
	}
	return min
}

// Span is one timed region in flight. The zero value (returned by
// StartSpan when no Recorder is installed) is valid and End on it is a
// no-op, so callers never branch on Enabled themselves.
type Span struct {
	rec  *Recorder
	name string
	tid  int
	t0   time.Duration
}

// StartSpan opens a span on the main track (tid 0). It costs one
// atomic load and allocates nothing when no Recorder is installed.
func StartSpan(name string) Span { return StartSpanTID(name, 0) }

// StartSpanTID opens a span on an explicit track. Concurrent actors
// (e.g. MIP tree-search workers) use one tid each so their spans land
// on separate rows in Perfetto; spans sharing a tid must nest.
func StartSpanTID(name string, tid int) Span {
	r := active.Load()
	if r == nil {
		return Span{}
	}
	return Span{rec: r, name: name, tid: tid, t0: time.Since(r.start)}
}

// End closes the span and records it. Calling End on a zero Span, or
// after the owning Recorder was stopped, does nothing.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	dur := time.Since(s.rec.start) - s.t0
	s.rec.mu.Lock()
	if !s.rec.stopped {
		s.rec.events = append(s.rec.events, spanEvent{name: s.name, tid: s.tid, start: s.t0, dur: dur})
	}
	s.rec.mu.Unlock()
}

// NameThread labels a track for the trace viewer (e.g. "mip worker 3").
// It is a no-op when no Recorder is installed.
func NameThread(tid int, name string) {
	r := active.Load()
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.threads == nil {
		r.threads = map[int]string{}
	}
	r.threads[tid] = name
	r.mu.Unlock()
}
