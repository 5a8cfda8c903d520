package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode < 300 {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return r.StatusCode
}

func TestCompileCacheTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles NAT three times")
	}
	_, ts := newTestServer(t, Config{Workers: 2, MIP: &mip.Options{}})
	req := CompileRequest{Name: "nat.nova", Source: workloads.NATSource, Workers: 1}

	var cold CompileResponse
	if code := postJSON(t, ts.URL+"/compile", req, &cold); code != 200 {
		t.Fatalf("cold compile: HTTP %d", code)
	}
	if cold.Outcome != "miss" {
		t.Fatalf("cold outcome %q, want miss", cold.Outcome)
	}
	if cold.Asm == "" || cold.Exact == "" {
		t.Fatal("cold response missing asm or exact hash")
	}

	// Replay: the output tier serves it without touching the solver,
	// byte-identical and (acceptance criterion) >= 100x faster.
	var hit CompileResponse
	if code := postJSON(t, ts.URL+"/compile", req, &hit); code != 200 {
		t.Fatalf("replay: HTTP %d", code)
	}
	if hit.Outcome != "source_hit" {
		t.Fatalf("replay outcome %q, want source_hit", hit.Outcome)
	}
	if hit.Asm != cold.Asm {
		t.Fatal("source-hit asm differs from cold compile")
	}
	if hit.ElapsedMS*100 > cold.ElapsedMS {
		t.Fatalf("source hit not >=100x faster: cold %.2fms, hit %.2fms", cold.ElapsedMS, hit.ElapsedMS)
	}

	// Skip the output tier: the model tier must serve the verified
	// allocation (exact hash match), still byte-identical.
	req.NoSourceCache = true
	var mhit CompileResponse
	if code := postJSON(t, ts.URL+"/compile", req, &mhit); code != 200 {
		t.Fatalf("nosrc replay: HTTP %d", code)
	}
	if mhit.Outcome != "hit" {
		t.Fatalf("nosrc outcome %q, want hit", mhit.Outcome)
	}
	// The model tier re-extracts assembly from the served (translated)
	// optimum; symmetric registers may legally swap names, so compare
	// the allocation's quality, not bytes — cached_test.go proves
	// behavioral bit-identity on the simulator.
	if math.Abs(mhit.Obj-cold.Obj) > 1e-9 || mhit.Moves != cold.Moves || mhit.Spills != cold.Spills {
		t.Fatalf("model-hit allocation differs: obj %g/%g moves %d/%d spills %d/%d",
			mhit.Obj, cold.Obj, mhit.Moves, cold.Moves, mhit.Spills, cold.Spills)
	}
	if mhit.Exact != cold.Exact {
		t.Fatalf("exact hash changed: %s vs %s", mhit.Exact, cold.Exact)
	}

	// Alpha-rename identifiers in the source: a different source key,
	// but the canonicalized model is identical, so the model tier
	// still serves it (satellite: identifier-independent hashing,
	// end to end).
	renamed := strings.NewReplacer(
		"paylen", "packet_words",
		"fold16", "ones_fold",
		"csum5", "header_csum",
	).Replace(workloads.NATSource)
	if renamed == workloads.NATSource {
		t.Fatal("rename had no effect")
	}
	rreq := CompileRequest{Name: "nat2.nova", Source: renamed, Workers: 1, NoSourceCache: true}
	var rhit CompileResponse
	if code := postJSON(t, ts.URL+"/compile", rreq, &rhit); code != 200 {
		t.Fatalf("renamed compile: HTTP %d", code)
	}
	if rhit.Outcome != "hit" {
		t.Fatalf("renamed outcome %q, want hit", rhit.Outcome)
	}
	if rhit.Exact != cold.Exact {
		t.Fatalf("renamed source hashed differently: %s vs %s", rhit.Exact, cold.Exact)
	}
	if math.Abs(rhit.Obj-cold.Obj) > 1e-9 {
		t.Fatalf("renamed objective %g, want %g", rhit.Obj, cold.Obj)
	}
}

// TestCompileBodyCap: a /compile body one byte over maxBodyBytes is
// refused with 413 and counted under server/errors, and no solve
// starts.
func TestCompileBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	head, tail := `{"name":"big.nova","source":"`, `"}`
	body := head + strings.Repeat(" ", maxBodyBytes+1-len(head)-len(tail)) + tail
	if len(body) != maxBodyBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(body), maxBodyBytes+1)
	}
	base := obs.TakeSnapshot()
	r, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", r.StatusCode)
	}
	d := obs.Since(base)
	if d["server/errors"] != 1 || d["mip/solves"] != 0 {
		t.Fatalf("deltas: server/errors %d (want 1), mip/solves %d (want 0)", d["server/errors"], d["mip/solves"])
	}
}

// TestCompileWorkersCap: a "workers" value outside [0, maxWorkers] is
// refused with 400 before any solve starts. Only the values just
// outside the range are tried, so a broken check starts at most
// maxWorkers+1 search goroutines.
func TestCompileWorkersCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, workers := range []int{maxWorkers + 1, -1} {
		base := obs.TakeSnapshot()
		req := CompileRequest{Name: "tiny.nova", Source: tinySource, Workers: workers, NoSourceCache: true}
		if code := postJSON(t, ts.URL+"/compile", req, nil); code != http.StatusBadRequest {
			t.Fatalf("workers %d: HTTP %d, want 400", workers, code)
		}
		d := obs.Since(base)
		if d["server/errors"] != 1 || d["mip/solves"] != 0 {
			t.Fatalf("workers %d: server/errors delta %d (want 1), mip/solves delta %d (want 0)",
				workers, d["server/errors"], d["mip/solves"])
		}
	}
}

const tinySource = `fun main(a: word, b: word) -> word { (a + b) ^ (a & b) }`

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := CompileRequest{Name: "tiny.nova", Source: tinySource, Workers: 1, Async: true}
	var st JobStatus
	if code := postJSON(t, ts.URL+"/compile", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.ID == "" {
		t.Fatal("no job id")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State == "done" {
			if cur.Result == nil || cur.Result.Asm == "" {
				t.Fatalf("done without result: %+v", cur)
			}
			break
		}
		if cur.State == "error" || cur.State == "cancelled" {
			t.Fatalf("job ended in state %q: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Unknown job id is a 404.
	r, err := http.Get(ts.URL + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", r.StatusCode)
	}
}

// getJob returns the HTTP status of GET /jobs/{id} and the body.
func getJob(t *testing.T, url, id string) (int, JobStatus) {
	t.Helper()
	r, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st JobStatus
	if r.StatusCode == http.StatusOK {
		json.NewDecoder(r.Body).Decode(&st)
	}
	return r.StatusCode, st
}

// TestJobRetention: the job table keeps keptJobs finished jobs, so the
// oldest of keptJobs+1 is evicted, and DELETE forgets a job at once.
func TestJobRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: keptJobs + 1})
	req := CompileRequest{Name: "tiny.nova", Source: tinySource, Workers: 1, Async: true}
	ids := make([]string, keptJobs+1)
	for i := range ids {
		var st JobStatus
		if code := postJSON(t, ts.URL+"/compile", req, &st); code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, code)
		}
		ids[i] = st.ID
	}
	// One worker runs the queue in order: once the last job is done,
	// so is every other.
	last := ids[keptJobs]
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, st := getJob(t, ts.URL, last)
		if code != http.StatusOK {
			t.Fatalf("last job: HTTP %d", code)
		}
		if st.State == "done" {
			break
		}
		if st.State != "queued" && st.State != "running" {
			t.Fatalf("last job ended %q: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("last job stuck in state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _ := getJob(t, ts.URL, ids[0]); code != http.StatusNotFound {
		t.Fatalf("the oldest of %d finished jobs: HTTP %d, want 404", keptJobs+1, code)
	}
	if code, _ := getJob(t, ts.URL, ids[1]); code != http.StatusOK {
		t.Fatalf("the second oldest finished job: HTTP %d, want 200", code)
	}
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+last, nil)
	r, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", r.StatusCode)
	}
	if code, _ := getJob(t, ts.URL, last); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: HTTP %d, want 404", code)
	}
}

func TestQueueFullAndCancel(t *testing.T) {
	// One worker, one queue slot. Slow every LP solve down so the
	// first job occupies the worker while the rest pile up.
	plan, err := fault.Parse("lp/solve_latency=200")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	req := CompileRequest{Name: "tiny.nova", Source: tinySource, Workers: 1, Async: true}

	var running JobStatus
	if code := postJSON(t, ts.URL+"/compile", req, &running); code != http.StatusAccepted {
		t.Fatalf("job 1: HTTP %d", code)
	}
	// Wait until it leaves the queue so the next submit occupies the
	// single queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, _ := http.Get(ts.URL + "/jobs/" + running.ID)
		var cur JobStatus
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State != "queued" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var queued JobStatus
	if code := postJSON(t, ts.URL+"/compile", req, &queued); code != http.StatusAccepted {
		t.Fatalf("job 2: HTTP %d", code)
	}
	base := obs.TakeSnapshot()
	if code := postJSON(t, ts.URL+"/compile", req, nil); code != http.StatusTooManyRequests {
		t.Fatalf("job 3: HTTP %d, want 429", code)
	}
	if d := obs.Since(base); d["server/queue_full"] != 1 {
		t.Fatalf("queue_full delta %d", d["server/queue_full"])
	}

	// Cancel the queued job; it must come back cancelled, not done.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	r, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if st.State != "cancelled" {
		t.Fatalf("cancelled job state %q", st.State)
	}
}

func TestSyncClientCancellation(t *testing.T) {
	// A sync client that gives up while queued behind a busy worker
	// must register as cancelled (request-context plumbing) without
	// consuming a solver slot.
	plan, err := fault.Parse("lp/solve_latency=300")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()

	s, ts := newTestServer(t, Config{Workers: 1})

	// Occupy the only worker with a slow async job.
	var slow JobStatus
	if code := postJSON(t, ts.URL+"/compile",
		CompileRequest{Name: "tiny.nova", Source: tinySource, Workers: 1, Async: true, NoSourceCache: true}, &slow); code != http.StatusAccepted {
		t.Fatalf("slow job: HTTP %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, _ := http.Get(ts.URL + "/jobs/" + slow.ID)
		var cur JobStatus
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow job stuck in %q", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	base := obs.TakeSnapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(CompileRequest{Name: "tiny.nova", Source: tinySource, Workers: 1, NoSourceCache: true})
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	if _, err := http.DefaultClient.Do(hreq); err == nil {
		t.Fatal("queued request succeeded despite cancellation")
	}
	for {
		if d := obs.Since(base); d["server/cancelled"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation not observed: %v", obs.Since(base))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The worker finishes the slow job and still serves new requests.
	fault.Reset()
	for {
		r, _ := http.Get(ts.URL + "/jobs/" + slow.ID)
		var cur JobStatus
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow job never finished (state %q)", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var resp CompileResponse
	if code := postJSON(t, ts.URL+"/compile", CompileRequest{Name: "tiny.nova", Source: tinySource, Workers: 1}, &resp); code != 200 {
		t.Fatalf("post-cancel compile: HTTP %d", code)
	}
	if resp.Asm == "" {
		t.Fatal("post-cancel compile returned no asm")
	}
	if s.inflight.Load() != 0 {
		t.Fatalf("inflight gauge stuck at %d", s.inflight.Load())
	}
}

func TestHealthAndCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("healthz: HTTP %d", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/debug/counters")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "server/requests") {
		t.Fatalf("counter dump missing server/requests:\n%s", buf.String())
	}
}

// TestDrainCompletesQueuedJobs: Drain lets queued and running async
// jobs finish, rejects new submissions with 503, and returns nil when
// the queue empties inside the deadline.
func TestDrainCompletesQueuedJobs(t *testing.T) {
	plan, err := fault.Parse("lp/solve_latency=100")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	req := CompileRequest{Name: "tiny.nova", Source: tinySource, Workers: 1, Async: true}
	var ids []string
	for i := 0; i < 3; i++ {
		var st JobStatus
		if code := postJSON(t, ts.URL+"/compile", req, &st); code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, code)
		}
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- s.Drain(ctx) }()

	// New async work is rejected once the draining flag lands; a submit
	// racing the flag may still be accepted, in which case the drain
	// must finish it too.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		code := postJSON(t, ts.URL+"/compile", req, &st)
		if code == http.StatusServiceUnavailable {
			break
		}
		if code == http.StatusAccepted {
			ids = append(ids, st.ID)
		} else {
			t.Fatalf("submit during drain: HTTP %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started rejecting submissions")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := <-errCh; err != nil {
		t.Fatalf("drain did not empty the queue: %v", err)
	}
	for _, id := range ids {
		r, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State != "done" {
			t.Fatalf("job %s drained into state %q, want done", id, st.State)
		}
	}
}
