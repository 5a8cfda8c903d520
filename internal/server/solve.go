package server

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/obs"
)

// SolveRequest is the /solve request body: a raw ILP in sparse form.
// Omitted bounds default to [0, +inf) for columns and (-inf, +inf)
// for rows. The endpoint runs through the same compile cache as
// /compile, so resubmitting the same ILP is an exact hit and editing
// a bound is a warm-started near miss.
type SolveRequest struct {
	Cols    []SolveCol `json:"cols"`
	Rows    []SolveRow `json:"rows"`
	Workers int        `json:"workers"`
}

// SolveCol declares one variable.
type SolveCol struct {
	Lo      *float64 `json:"lo,omitempty"`
	Hi      *float64 `json:"hi,omitempty"`
	Obj     float64  `json:"obj"`
	Integer bool     `json:"integer"`
}

// SolveRow declares one constraint lo <= sum vals·x[cols] <= hi.
type SolveRow struct {
	Lo   *float64  `json:"lo,omitempty"`
	Hi   *float64  `json:"hi,omitempty"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

// SolveResponse is the /solve response body.
type SolveResponse struct {
	Status     string    `json:"status"`
	Obj        float64   `json:"obj"`
	X          []float64 `json:"x,omitempty"`
	Outcome    string    `json:"outcome"`
	Structural string    `json:"structural,omitempty"`
	Exact      string    `json:"exact,omitempty"`
	Nodes      int       `json:"nodes"`
	LPIters    int       `json:"lp_iters"`
	ElapsedMS  float64   `json:"elapsed_ms"`
}

func bound(v *float64, def float64) float64 {
	if v == nil {
		return def
	}
	return *v
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Cols) == 0 {
		WriteError(w, http.StatusBadRequest, "no columns")
		return
	}
	p := lp.NewProblem()
	mask := make([]bool, len(req.Cols))
	for j, c := range req.Cols {
		p.AddCol(c.Obj, bound(c.Lo, 0), bound(c.Hi, lp.Inf))
		mask[j] = c.Integer
	}
	for i, row := range req.Rows {
		if len(row.Cols) != len(row.Vals) {
			WriteError(w, http.StatusBadRequest, "row %d: cols/vals length mismatch", i)
			return
		}
		for _, j := range row.Cols {
			if j < 0 || j >= len(req.Cols) {
				WriteError(w, http.StatusBadRequest, "row %d: column %d out of range", i, j)
				return
			}
		}
		p.AddRow(bound(row.Lo, -lp.Inf), bound(row.Hi, lp.Inf), row.Cols, row.Vals)
	}
	m := model.FromILP(p, mask)

	ctx := r.Context()
	if err := s.acquire(ctx); err != nil {
		cCancelled.Inc()
		return
	}
	defer s.release()

	sp := obs.StartSpan("server/solve")
	defer sp.End()
	start := time.Now()

	hook := &cache.Hook{C: s.cache}
	opts, cancel := s.mipOptions(ctx)
	defer cancel()
	opts.Workers = req.Workers

	resp := &SolveResponse{}
	if x, served := hook.BeforeSolve(m, opts); served {
		resp.Status = mip.Optimal.String()
		resp.Obj = m.Objective(x)
		resp.X = x
	} else {
		res, err := m.Solve(opts)
		if err != nil {
			if ctx.Err() != nil {
				cCancelled.Inc()
				return
			}
			WriteError(w, http.StatusUnprocessableEntity, "solve: %v", err)
			return
		}
		if res.Status == mip.Optimal {
			hook.AfterSolve(m, res)
		}
		resp.Status = res.Status.String()
		resp.Obj = res.Obj
		resp.X = res.X
		resp.Nodes = res.Nodes
		resp.LPIters = res.LPIters
	}
	resp.Outcome = hook.Outcome.String()
	resp.Structural = hook.Structural
	resp.Exact = hook.Exact
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	WriteJSON(w, http.StatusOK, resp)
}
