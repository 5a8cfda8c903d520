package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/lp"
	"repro/internal/mip"
)

// The -server mode: replay the paper's three workloads plus the
// MultiKnapsack solver benchmark against a live novad and report the
// client-observed latency of each cache tier — cold compile, source
// hit, canonical-model hit, and warm-started near miss. With -json,
// the same numbers are written as a machine-readable record (this is
// how BENCH_server.json is regenerated).

type serverBenchRecord struct {
	Benchmark string            `json:"benchmark"`
	Date      string            `json:"date"`
	Server    string            `json:"server"`
	Host      benchHost         `json:"host"`
	Rounds    int               `json:"rounds"`
	Note      string            `json:"note"`
	Results   []serverTierStats `json:"results"`
}

type serverTierStats struct {
	Workload string  `json:"workload"`
	Tier     string  `json:"tier"` // cold | source_hit | hit | near_miss
	Count    int     `json:"count"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	MaxMS    float64 `json:"max_ms"`
}

func percentile(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func tierStats(workload, tier string, ms []float64) serverTierStats {
	return serverTierStats{
		Workload: workload,
		Tier:     tier,
		Count:    len(ms),
		P50MS:    percentile(ms, 0.50),
		P90MS:    percentile(ms, 0.90),
		MaxMS:    percentile(ms, 1.0),
	}
}

// Retry schedule for 429 (queue full): jittered exponential backoff so
// concurrent clients don't re-collide on the same instant. The reported
// latency covers only the attempt that succeeded — backoff time is the
// client's choice, not the server's.
const (
	retryAttempts = 8
	retryBase     = 50 * time.Millisecond
	retryCap      = 2 * time.Second
)

var retryRand = rand.New(rand.NewSource(1))

// postTimed posts v to url, decodes the response into out, and
// returns the client-observed latency of the successful attempt. A 429
// (server queue full) is retried with jittered exponential backoff;
// any other non-200 fails immediately.
func postTimed(url string, v any, out any) (float64, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		start := time.Now()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < retryAttempts-1 {
			resp.Body.Close()
			backoff := retryBase << attempt
			if backoff > retryCap {
				backoff = retryCap
			}
			// Full jitter: sleep a uniform fraction of the window.
			time.Sleep(time.Duration(retryRand.Int63n(int64(backoff)) + int64(backoff)/2))
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, buf.String())
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, err
		}
		return float64(time.Since(start)) / float64(time.Millisecond), nil
	}
}

type serverCompileReply struct {
	Outcome string  `json:"outcome"`
	Asm     string  `json:"asm"`
	Obj     float64 `json:"obj"`
	Moves   int     `json:"moves"`
	Spills  int     `json:"spills"`
}

type serverSolveReply struct {
	Outcome string  `json:"outcome"`
	Status  string  `json:"status"`
	Obj     float64 `json:"obj"`
	X       []float64
}

func runServerBench(addr string, rounds int, jsonOut string) error {
	base := addr
	if len(base) < 7 || base[:7] != "http://" && base[:8] != "https://" {
		base = "http://" + base
	}
	rec := serverBenchRecord{
		Benchmark: "novad serving tiers",
		Date:      time.Now().Format("2006-01-02"),
		Server:    base,
		Host: benchHost{
			CPU:           cpuModel(),
			PhysicalCores: runtime.NumCPU(),
			OS:            runtime.GOOS,
			Go:            runtime.Version(),
		},
		Rounds: rounds,
		Note: "Client-observed /compile and /solve latency per cache tier against a " +
			"live novad. cold populates the cache, source_hit replays the identical " +
			"request, hit replays with nosrc (canonicalized-model tier, asm still " +
			"byte-identical), near_miss re-solves MultiKnapsack after a single bound " +
			"edit seeded with the cached optimum, whose objective is also a proven " +
			"lower bound that closes the search at the root.",
	}

	// Compile tiers over the three paper workloads.
	for _, w := range table {
		req := map[string]any{
			"name": w.name + ".nova", "source": w.src, "workers": *jobs,
		}
		var cold serverCompileReply
		coldMS, err := postTimed(base+"/compile", req, &cold)
		if err != nil {
			return fmt.Errorf("%s cold: %w", w.name, err)
		}
		if cold.Outcome == "source_hit" || cold.Outcome == "hit" {
			fmt.Fprintf(os.Stderr, "note: %s already cached on this server (outcome %s)\n", w.name, cold.Outcome)
		}
		rec.Results = append(rec.Results, tierStats(w.name, "cold("+cold.Outcome+")", []float64{coldMS}))

		var srcMS, hitMS []float64
		for i := 0; i < rounds; i++ {
			var r serverCompileReply
			ms, err := postTimed(base+"/compile", req, &r)
			if err != nil {
				return fmt.Errorf("%s source replay: %w", w.name, err)
			}
			if r.Outcome != "source_hit" {
				return fmt.Errorf("%s source replay outcome %q", w.name, r.Outcome)
			}
			if r.Asm != cold.Asm {
				return fmt.Errorf("%s source replay asm differs", w.name)
			}
			srcMS = append(srcMS, ms)
		}
		nreq := map[string]any{
			"name": w.name + ".nova", "source": w.src, "workers": *jobs, "nosrc": true,
		}
		for i := 0; i < rounds; i++ {
			var r serverCompileReply
			ms, err := postTimed(base+"/compile", nreq, &r)
			if err != nil {
				return fmt.Errorf("%s model replay: %w", w.name, err)
			}
			if r.Outcome != "hit" {
				return fmt.Errorf("%s model replay outcome %q", w.name, r.Outcome)
			}
			// The model tier serves the cached optimum translated into
			// this request's coordinates. Truly symmetric registers may
			// swap names across builds, so the assembly is compared on
			// its allocation quality, not bytes (the source tier above
			// checks byte identity).
			if math.Abs(r.Obj-cold.Obj) > 1e-9 || r.Moves != cold.Moves || r.Spills != cold.Spills {
				return fmt.Errorf("%s model replay allocation differs: obj %g/%g moves %d/%d spills %d/%d",
					w.name, r.Obj, cold.Obj, r.Moves, cold.Moves, r.Spills, cold.Spills)
			}
			hitMS = append(hitMS, ms)
		}
		rec.Results = append(rec.Results,
			tierStats(w.name, "source_hit", srcMS),
			tierStats(w.name, "hit", hitMS))
	}

	// Solve tiers over the solver benchmark instance: exact hits, then
	// one near miss per bound edit.
	p := mip.MultiKnapsack(34, 12, 7)
	sreq := solveRequestOf(p)
	var cold serverSolveReply
	coldMS, err := postTimed(base+"/solve", sreq, &cold)
	if err != nil {
		return fmt.Errorf("knapsack cold: %w", err)
	}
	rec.Results = append(rec.Results, tierStats("MultiKnapsack", "cold("+cold.Outcome+")", []float64{coldMS}))
	var hitMS, nearMS []float64
	for i := 0; i < rounds; i++ {
		var r serverSolveReply
		ms, err := postTimed(base+"/solve", sreq, &r)
		if err != nil {
			return fmt.Errorf("knapsack replay: %w", err)
		}
		if r.Outcome != "hit" {
			return fmt.Errorf("knapsack replay outcome %q", r.Outcome)
		}
		hitMS = append(hitMS, ms)
	}
	// Each round fixes a different variable that the optimum leaves at
	// zero: same structure, different region — a warm-started near miss
	// whose optimum is unchanged.
	zeros := []int{}
	for j, v := range cold.X {
		if v < 1e-9 {
			zeros = append(zeros, j)
		}
	}
	for i := 0; i < rounds && i < len(zeros); i++ {
		edited := solveRequestOf(p)
		z := 0.0
		edited.Cols[zeros[i]].Hi = &z
		var r serverSolveReply
		ms, err := postTimed(base+"/solve", edited, &r)
		if err != nil {
			return fmt.Errorf("knapsack near miss: %w", err)
		}
		if r.Outcome != "near_miss" {
			return fmt.Errorf("knapsack near-miss outcome %q", r.Outcome)
		}
		if r.Status != "optimal" || r.Obj > cold.Obj+1e-6 || r.Obj < cold.Obj-1e-6 {
			return fmt.Errorf("knapsack near miss: status %s obj %g (cold %g)", r.Status, r.Obj, cold.Obj)
		}
		nearMS = append(nearMS, ms)
	}
	rec.Results = append(rec.Results,
		tierStats("MultiKnapsack", "hit", hitMS),
		tierStats("MultiKnapsack", "near_miss", nearMS))

	fmt.Printf("novad serving latency (%s, %d rounds per tier)\n", base, rounds)
	fmt.Printf("%-14s %-18s %6s %10s %10s %10s\n", "workload", "tier", "n", "p50(ms)", "p90(ms)", "max(ms)")
	for _, r := range rec.Results {
		fmt.Printf("%-14s %-18s %6d %10.2f %10.2f %10.2f\n",
			r.Workload, r.Tier, r.Count, r.P50MS, r.P90MS, r.MaxMS)
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}
	return nil
}

// solveRequestOf converts an lp.Problem into the /solve JSON shape.
// It mirrors server.SolveRequest without importing the server package
// (novabench talks to novad purely over the wire).
type solveColJSON struct {
	Lo      *float64 `json:"lo,omitempty"`
	Hi      *float64 `json:"hi,omitempty"`
	Obj     float64  `json:"obj"`
	Integer bool     `json:"integer"`
}

type solveRowJSON struct {
	Lo   *float64  `json:"lo,omitempty"`
	Hi   *float64  `json:"hi,omitempty"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

type solveReqJSON struct {
	Cols    []solveColJSON `json:"cols"`
	Rows    []solveRowJSON `json:"rows"`
	Workers int            `json:"workers"`
}

// finite returns a pointer to v, or nil when v is infinite — JSON has
// no Inf, and the /solve endpoint treats omitted bounds as unbounded.
func finite(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func solveRequestOf(p *lp.Problem) solveReqJSON {
	req := solveReqJSON{Workers: *jobs}
	for j := 0; j < p.NumCols(); j++ {
		lo, hi := p.Bounds(j)
		req.Cols = append(req.Cols, solveColJSON{Lo: finite(lo), Hi: finite(hi), Obj: p.Obj(j), Integer: true})
	}
	rows := make([]solveRowJSON, p.NumRows())
	for j := 0; j < p.NumCols(); j++ {
		for _, nz := range p.Col(j) {
			rows[nz.Row].Cols = append(rows[nz.Row].Cols, j)
			rows[nz.Row].Vals = append(rows[nz.Row].Vals, nz.Val)
		}
	}
	for r := range rows {
		lo, hi := p.RowBounds(r)
		rows[r].Lo, rows[r].Hi = finite(lo), finite(hi)
	}
	req.Rows = rows
	return req
}
