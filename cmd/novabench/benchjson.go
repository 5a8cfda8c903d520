package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/mip"
	"repro/internal/obs"
)

// The -json mode: run the exact BenchmarkMIPScaling workload across
// worker counts and write the record BENCH_mip.json holds, so the
// checked-in numbers can be regenerated with one command.

type benchRecord struct {
	Benchmark string        `json:"benchmark"`
	Package   string        `json:"package"`
	Date      string        `json:"date"`
	Host      benchHost     `json:"host"`
	Workload  string        `json:"workload"`
	Note      string        `json:"note"`
	Benchtime string        `json:"benchtime"`
	Results   []benchResult `json:"results"`
}

type benchHost struct {
	CPU           string `json:"cpu"`
	PhysicalCores int    `json:"physical_cores"`
	OS            string `json:"os"`
	Go            string `json:"go"`
}

type benchResult struct {
	CPU            int     `json:"cpu"`
	NsPerOp        int64   `json:"ns_per_op"`
	Nodes          int     `json:"nodes"`
	LPItersPerNode float64 `json:"lp_iters_per_node"`
	Cuts           int     `json:"cuts"`
	RootObj        float64 `json:"root_obj"`
	RootCutObj     float64 `json:"root_cut_obj"`
	// Counters holds the obs counter deltas over this worker count's
	// benchReps solves (DESIGN.md §8); zero deltas are omitted.
	Counters obs.Snapshot `json:"counters"`
}

const benchReps = 3

func writeBenchJSON(path string) error {
	rec := benchRecord{
		Benchmark: "BenchmarkMIPScaling",
		Package:   "repro/internal/mip",
		Date:      time.Now().Format("2006-01-02"),
		Host: benchHost{
			CPU:           cpuModel(),
			PhysicalCores: runtime.NumCPU(),
			OS:            runtime.GOOS,
			Go:            runtime.Version(),
		},
		Workload: "mip.MultiKnapsack(n=60, m=5, seed=12345), Workers=cpu",
		Note: "Sparse-LU kernel with Forrest-Tomlin updates, long-step dual warm " +
			"re-solves, and devex pricing; -dual=false pins the primal simplex on " +
			"node re-solves. The earlier dense-eta primal kernel measured 21.32 " +
			"lp-iters/node, 11.8 lp-iterations per node solve and 43% degenerate " +
			"pivots at cpu=1 on this instance (EXPERIMENTS.md, LP kernel table); it " +
			"is no longer in the tree. -cuts=false reproduces the pre-cut search. " +
			"lp-iters/node includes the " +
			"iterations the root heuristics spend, so it rises even as the tree " +
			"shrinks.",
		Benchtime: fmt.Sprintf("%dx", benchReps),
	}
	for _, cpu := range []int{1, 2, 4, 8} {
		opts := mipOptions()
		opts.Workers = cpu
		base := obs.TakeSnapshot()
		var total time.Duration
		var last *mip.Result
		for rep := 0; rep < benchReps; rep++ {
			p := mip.MultiKnapsack(60, 5, 12345)
			start := time.Now()
			res, err := mip.Solve(p, nil, opts)
			total += time.Since(start)
			if err != nil {
				return fmt.Errorf("cpu=%d: %w", cpu, err)
			}
			last = res
		}
		rec.Results = append(rec.Results, benchResult{
			CPU:            cpu,
			NsPerOp:        total.Nanoseconds() / benchReps,
			Nodes:          last.Nodes,
			LPItersPerNode: round2(float64(last.LPIters) / float64(last.Nodes)),
			Cuts:           last.Cuts,
			RootObj:        round4(last.RootObj),
			RootCutObj:     round4(last.RootCutObj),
			Counters:       obs.Since(base),
		})
		fmt.Fprintf(os.Stderr, "cpu=%d: %v/op, %d nodes, %d cuts\n",
			cpu, total/benchReps, last.Nodes, last.Cuts)
	}
	out, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }
func round4(x float64) float64 { return math.Round(x*10000) / 10000 }

// cpuModel reads the processor model name where the OS exposes one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
