// Package server is the HTTP front end of novad, the compile-as-a-
// service daemon: compile requests in JSON, allocated assembly out,
// with the compile cache (internal/cache) in front of the solver and
// the observability endpoints mounted alongside.
//
// Endpoints:
//
//	POST   /compile         compile Nova source (sync, or async with "async": true)
//	GET    /jobs/{id}       poll an async job; returns the result when done
//	DELETE /jobs/{id}       cancel an async job and forget it
//	GET    /healthz         liveness probe
//	GET    /debug/counters  obs counter dump (text)
//	GET    /debug/pprof/    net/http/pprof profiles
//
// A /compile body larger than maxBodyBytes is refused with 413, and a
// "workers" value outside [0, maxWorkers] with 400; both are counted
// under server/errors and start no solve.
//
// The job table keeps every queued and running async job, and the 64
// (keptJobs) most recently finished ones: finishing one more evicts
// the oldest finished job, and DELETE removes a job at once, so a
// later GET of either is a 404.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/obs"
)

var (
	cRequests  = obs.NewCounter("server/requests")
	cCancelled = obs.NewCounter("server/cancelled")
	cErrors    = obs.NewCounter("server/errors")
	cQueueFull = obs.NewCounter("server/queue_full")
	gInflight  = obs.NewGauge("server/inflight")
)

// Config configures a Server. Zero values select the defaults.
type Config struct {
	Cache        *cache.Cache  // compile cache; nil allocates a default one
	Workers      int           // max concurrent solves, sync + async combined (default 2)
	QueueDepth   int           // async job queue capacity (default 64)
	SolveTimeout time.Duration // per-request solve deadline; 0 = none
	MIP          *mip.Options  // base solver options, copied per request
}

// Server carries the daemon state behind the HTTP handler.
type Server struct {
	cfg      Config
	cache    *cache.Cache
	mux      *http.ServeMux
	sem      chan struct{} // bounds concurrent solves
	inflight atomic.Int64

	jobs  *jobTable
	queue chan *job
	stop  chan struct{}

	draining  atomic.Bool  // Drain called: reject new async work
	pending   atomic.Int64 // queued + running async jobs
	closeOnce sync.Once
}

// New builds a Server and starts its async workers. Call Close to
// stop them.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Cache == nil {
		cfg.Cache = cache.New(cache.Config{})
	}
	s := &Server{
		cfg:   cfg,
		cache: cfg.Cache,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.Workers),
		jobs:  newJobTable(),
		queue: make(chan *job, cfg.QueueDepth),
		stop:  make(chan struct{}),
	}
	s.mux.HandleFunc("POST /compile", s.handleCompile)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /debug/counters", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap := obs.TakeSnapshot()
		for _, name := range snap.Names() {
			fmt.Fprintf(w, "%s %d\n", name, snap[name])
		}
	})
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	for i := 0; i < cfg.Workers; i++ {
		go s.jobWorker()
	}
	return s
}

// Handler returns the HTTP handler to serve.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the async workers. In-flight jobs are cancelled. Safe to
// call more than once (Drain closes internally; deferred Closes stack).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.jobs.cancelAll()
	})
}

// Drain gracefully shuts the async pipeline down: new async
// submissions are rejected (503) from this call on, and Drain waits
// until every queued and running job has finished or ctx expires,
// then stops the workers. It returns nil when the queue emptied and
// the abandonment count wrapped in an error otherwise — callers decide
// whether an incomplete drain still exits 0.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for s.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			n := s.pending.Load()
			s.Close()
			return fmt.Errorf("server: drain abandoned %d jobs: %w", n, ctx.Err())
		case <-t.C:
		}
	}
	s.Close()
	return nil
}

// CompileRequest is the /compile request body.
type CompileRequest struct {
	Name    string `json:"name"`    // diagnostic name, e.g. "nat.nova"
	Source  string `json:"source"`  // Nova source text
	Entry   string `json:"entry"`   // entry function; default "main"
	Workers int    `json:"workers"` // ILP tree-search workers, 0..maxWorkers; 0 = all cores
	// Async enqueues the compile and returns a job id immediately
	// (poll GET /jobs/{id}).
	Async bool `json:"async"`
	// NoSourceCache skips the source-level output tier so the request
	// exercises the canonicalized model cache (benchmarks, tests).
	NoSourceCache bool `json:"nosrc"`
}

// CompileResponse is the /compile (and finished job) response body.
type CompileResponse struct {
	Name string `json:"name"`
	Asm  string `json:"asm"`
	// Outcome reports which cache tier served the request:
	// "source_hit", "hit", or "miss".
	Outcome   string  `json:"outcome"`
	Exact     string  `json:"exact,omitempty"`
	Obj       float64 `json:"obj"` // total weighted move cost
	Moves     int     `json:"moves"`
	Spills    int     `json:"spills"`
	Remats    int     `json:"remats"`
	Nodes     int     `json:"nodes"`
	LPIters   int     `json:"lp_iters"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Request limits. The paper's Nova sources are at most 4.4 KB, so a
// 1 MiB body leaves ample room; the workers cap bounds how many
// tree-search goroutines one request can start.
const (
	maxBodyBytes = 1 << 20
	maxWorkers   = 64
)

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as an indented JSON response with the given
// status code. Shared by the other daemons (fleetd) so every HTTP
// surface in the repo speaks the same wire shape.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the standard {"error": ...} body with the given
// status code and counts it under server/errors.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	cErrors.Inc()
	WriteJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// sourceKey is the output-tier cache key: everything that determines
// the compiled artifact at the source level.
func sourceKey(req *CompileRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "src\x00%s\x00%d\x00", req.Entry, req.Workers)
	h.Write([]byte(req.Source))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// acquire takes a solver slot, or fails when the client gives up
// first. It also maintains the server/inflight gauge.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		gInflight.Set(s.inflight.Add(1))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	gInflight.Set(s.inflight.Add(-1))
	<-s.sem
}

// mipOptions builds the per-request solver options: a copy of the
// configured base with the request context wired into Options.Ctx so a
// disconnected client cancels its branch and bound.
func (s *Server) mipOptions(ctx context.Context) (*mip.Options, context.CancelFunc) {
	o := mip.Options{}
	if s.cfg.MIP != nil {
		o = *s.cfg.MIP
	}
	cancel := context.CancelFunc(func() {})
	if s.cfg.SolveTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
	}
	o.Ctx = ctx
	return &o, cancel
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	var req CompileRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return
		}
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Source == "" {
		WriteError(w, http.StatusBadRequest, "empty source")
		return
	}
	if req.Workers < 0 || req.Workers > maxWorkers {
		WriteError(w, http.StatusBadRequest, "workers %d outside [0, %d]", req.Workers, maxWorkers)
		return
	}
	if req.Name == "" {
		req.Name = "request.nova"
	}
	if req.Entry == "" {
		req.Entry = "main"
	}
	if req.Async {
		if s.draining.Load() {
			WriteError(w, http.StatusServiceUnavailable, "server draining; not accepting new jobs")
			return
		}
		j := s.jobs.add(&req)
		s.pending.Add(1)
		select {
		case s.queue <- j:
			WriteJSON(w, http.StatusAccepted, jobStatus(j))
		default:
			s.pending.Add(-1)
			cQueueFull.Inc()
			s.jobs.remove(j.id)
			WriteError(w, http.StatusTooManyRequests, "job queue full (%d deep)", cap(s.queue))
		}
		return
	}
	resp, code, err := s.compile(r.Context(), &req)
	if err != nil {
		if r.Context().Err() != nil {
			cCancelled.Inc()
			return // client is gone; nothing useful to write
		}
		WriteError(w, code, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// compile runs one request through the tiers: output cache, then the
// model cache (via the core solve hook), then a cold compile. The
// returned int is the HTTP status for the error case.
func (s *Server) compile(ctx context.Context, req *CompileRequest) (*CompileResponse, int, error) {
	sp := obs.StartSpan("server/compile")
	defer sp.End()
	start := time.Now()

	key := sourceKey(req)
	if !req.NoSourceCache {
		if data, ok := s.cache.GetOutput(key); ok {
			var resp CompileResponse
			if json.Unmarshal(data, &resp) == nil {
				resp.Outcome = "source_hit"
				resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
				return &resp, 0, nil
			}
			// An undecodable blob is dropped by overwrite below.
		}
	}

	if err := s.acquire(ctx); err != nil {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("cancelled while queued: %w", err)
	}
	defer s.release()

	hook := &cache.Hook{C: s.cache}
	mipOpts, cancel := s.mipOptions(ctx)
	defer cancel()
	opts := nova.DefaultOptions()
	opts.Entry = req.Entry
	opts.Workers = req.Workers
	opts.MIP = mipOpts
	opts.Alloc.Hook = hook

	comp, err := nova.Compile(req.Name, req.Source, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, http.StatusServiceUnavailable, fmt.Errorf("solve cancelled: %w", ctx.Err())
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	resp := &CompileResponse{
		Name:    req.Name,
		Asm:     comp.Asm.String(),
		Outcome: hook.Outcome.String(),
		Exact:   hook.Exact,
		Obj:     comp.Alloc.MIP.Obj + comp.Alloc.ObjConst,
		Moves:   comp.Alloc.NumMoves(),
		Spills:  comp.Alloc.Spills,
		Remats:  comp.Alloc.Remats,
		Nodes:   comp.Alloc.MIP.Nodes,
		LPIters: comp.Alloc.MIP.LPIters,
	}
	// A fallback allocation is correct but unproven; never let it
	// masquerade as a cached optimum.
	if !comp.Alloc.Fallback {
		if data, err := json.Marshal(resp); err == nil {
			s.cache.PutOutput(key, data)
		}
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, 0, nil
}
