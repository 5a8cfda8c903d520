package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"repro/internal/obs"
)

var cJobs = obs.NewCounter("server/jobs")

// job is one async compile: submitted with {"async": true}, executed
// by a worker goroutine, polled via GET /jobs/{id}.
type job struct {
	id  string
	req *CompileRequest

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  string // "queued" -> "running" -> "done" | "error" | "cancelled"
	resp   *CompileResponse
	errMsg string
}

// JobStatus is the /jobs/{id} response body.
type JobStatus struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Error  string           `json:"error,omitempty"`
	Result *CompileResponse `json:"result,omitempty"`
}

func jobStatus(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state, Error: j.errMsg, Result: j.resp}
}

// keptJobs is how many finished async jobs the table keeps for
// GET /jobs/{id}; finishing one more evicts the oldest.
const keptJobs = 64

// jobTable holds every queued and running async job and the keptJobs
// most recently finished ones.
type jobTable struct {
	mu   sync.Mutex
	next int
	m    map[string]*job
	done []string // ids of the finished jobs in m, oldest first
}

func newJobTable() *jobTable {
	return &jobTable{m: map[string]*job{}}
}

func (t *jobTable) add(req *CompileRequest) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:     fmt.Sprintf("j%d", t.next),
		req:    req,
		ctx:    ctx,
		cancel: cancel,
		state:  "queued",
	}
	t.m[j.id] = j
	cJobs.Inc()
	return j
}

func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

func (t *jobTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
	if i := slices.Index(t.done, id); i >= 0 {
		t.done = slices.Delete(t.done, i, i+1)
	}
}

// finish records that j has finished, evicting the oldest finished job
// past keptJobs. A job removed while it ran stays removed.
func (t *jobTable) finish(j *job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m[j.id] != j {
		return
	}
	t.done = append(t.done, j.id)
	if len(t.done) > keptJobs {
		delete(t.m, t.done[0])
		t.done = slices.Delete(t.done, 0, 1)
	}
}

func (t *jobTable) cancelAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.m {
		j.cancel()
	}
}

// jobWorker drains the async queue. Concurrency is still bounded by
// the solver semaphore, which sync requests share.
func (s *Server) jobWorker() {
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *job) {
	defer s.pending.Add(-1)
	j.mu.Lock()
	if j.state != "queued" { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.state = "running"
	j.mu.Unlock()

	resp, _, err := s.compile(j.ctx, j.req)

	j.mu.Lock()
	switch {
	case j.ctx.Err() != nil:
		j.state = "cancelled"
		j.errMsg = j.ctx.Err().Error()
		cCancelled.Inc()
	case err != nil:
		j.state = "error"
		j.errMsg = err.Error()
	default:
		j.state = "done"
		j.resp = resp
	}
	j.mu.Unlock()
	s.jobs.finish(j)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, jobStatus(j))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel()
	j.mu.Lock()
	if j.state == "queued" {
		j.state = "cancelled"
	}
	j.mu.Unlock()
	s.jobs.remove(j.id)
	WriteJSON(w, http.StatusOK, jobStatus(j))
}
