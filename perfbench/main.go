// Command perfbench is the repository's benchmark. One binary runs one
// of three workloads against the three ends of the system — compile
// (nova.Compile), serve (novad's handler over loopback HTTP) and
// simulate (fleet.Run and the bare ixp.Chip batch loop) — checks every
// output, and prints one JSON result line. README.md describes the
// workloads, the metrics and which layer should move which number.
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stateDir holds what one run leaves for the next: the Chrome traces of
// traced runs and the deterministic counts of every (binary, workload,
// seed, seconds) seen so far. It is relative to the checkout root.
const stateDir = ".bench_build/state"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run: its parameters, the tally of output checks,
// the metrics it reports, and the counts that must repeat exactly on
// another run with the same seed.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	attempted, failed int64
	metrics           map[string]metric
	det               map[string]int64
}

// check counts one checked operation and reports a failed one on
// standard error.
func (b *bench) check(ok bool, format string, args ...any) bool {
	return b.checkN(1, ok, format, args...)
}

// checkN counts n operations whose outputs one check covers.
func (b *bench) checkN(n int64, ok bool, format string, args ...any) bool {
	b.attempted += n
	if !ok {
		b.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

func (b *bench) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayerUnit[name]
	}
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd are the metrics every workload reports without tracing.
// Their meaning per workload is in README.md.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"p50_ms":        "ms",
	"tail_ms":       "ms",
	"goodput_per_s": "1/s",
}

// compilePrograms are the paper's three programs in the order the
// compile workload runs them; their per-program metrics carry the name
// as a suffix.
var compilePrograms = []string{"aes", "kasumi", "nat"}

// perProgram are the per-layer metrics the compile workload reports
// per program: those an LP, search or codegen change is likely to move.
var perProgram = []string{
	"compile_s", "cycles_per_packet", "phase.alloc.model_ms", "mip.presolve_ms",
	"mip.root_lp_ms", "mip.cut_loop_ms", "mip.search_ms", "lp.iterations",
	"lp.degenerate_pivots", "lp.dual_iterations", "lp.refactorizations",
	"mip.nodes", "model.vars", "model.rows", "core.moves", "core.spills", "asm.code_words",
}

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run of any workload prints all of them; a layer the
// workload does not exercise reads 0.
var perLayer = func() [][2]string {
	l := [][2]string{
		// front end
		{"phase.parse_ms", "ms"}, {"phase.typecheck_ms", "ms"}, {"phase.cps_ms", "ms"},
		{"phase.opt_ms", "ms"}, {"phase.ssu_ms", "ms"}, {"phase.isel_ms", "ms"},
		{"isel.mir_instrs", "count"},
		// core
		{"phase.alloc.graph_ms", "ms"}, {"phase.alloc.model_ms", "ms"}, {"phase.alloc.extract_ms", "ms"},
		{"phase.verify_ms", "ms"}, {"phase.assign_ms", "ms"},
		{"model.vars", "count"}, {"model.rows", "count"}, {"core.moves", "count"}, {"core.spills", "count"},
		// model
		{"mip.presolve_ms", "ms"}, {"mip.presolve.dropped_rows", "count"}, {"mip.presolve.fixed_vars", "count"},
		{"model.canonicalize_ms", "ms"},
		// lp
		{"mip.root_lp_ms", "ms"}, {"lp.iterations", "count"}, {"lp.degenerate_pivots", "count"},
		{"lp.dual_iterations", "count"}, {"lp.refactorizations", "count"}, {"lp.solves", "count"},
		// mip
		{"mip.search_ms", "ms"}, {"mip.cut_loop_ms", "ms"}, {"mip.nodes", "count"},
		{"mip.incumbents", "count"}, {"mip.heuristic_calls", "count"},
		// asm
		{"phase.emit_ms", "ms"}, {"asm.code_words", "count"},
		// cache
		{"phase.alloc.cache_ms", "ms"}, {"cache.source_hits", "share"}, {"cache.hits", "share"},
		{"cache.near_misses", "share"}, {"cache.misses", "share"},
		{"cache.validation_drops", "count"}, {"cache.evictions", "count"},
		// server
		{"server.elapsed_p50_ms", "ms"}, {"server.overhead_p50_ms", "ms"},
		{"server.queue_full", "count"}, {"serve.gen_late_ms", "ms"},
		// ixp
		{"ixp.instrs", "count"}, {"ixp.cycles", "count"}, {"ixp.stall_cycles", "count"},
		{"ixp.port_wait_cycles", "count"}, {"ixp.sram_refs", "count"}, {"ixp.host_ns_per_instr", "ns"},
		// fleet and pktgen
		{"fleet.overhead_pct", "%"}, {"fleet.cpu_per_wall", "ratio"}, {"fleet.batches", "count"},
		{"pktgen.ns_per_packet", "ns"},
		// the process
		{"peak_rss_mb", "MB"},
		// the workload's own headline numbers, measured under tracing
		{"serve_p50_ms", "ms"}, {"serve_p95_ms", "ms"}, {"serve_hit_p50_ms", "ms"},
		{"serve_goodput_rps", "1/s"}, {"sim_pps.aes", "pkt/s"}, {"sim_pps.nat", "pkt/s"},
		{"sim_mips", "Minstr/s"},
		// accounting
		{"accounting.residual_pct", "%"}, {"trace.overhead_pct", "%"},
	}
	for _, layer := range layers {
		l = append(l, [2]string{"self_ms." + layer, "ms"})
	}
	units := map[string]string{}
	for _, m := range l {
		units[m[0]] = m[1]
	}
	for _, name := range perProgram {
		unit := units[name]
		switch name {
		case "compile_s":
			unit = "s"
		case "cycles_per_packet":
			unit = "cycles"
		}
		for _, p := range compilePrograms {
			l = append(l, [2]string{name + "." + p, unit})
		}
	}
	return l
}()

var perLayerUnit = func() map[string]string {
	m := map[string]string{}
	for _, e := range perLayer {
		m[e[0]] = e[1]
	}
	return m
}()

func main() {
	var (
		workload = flag.String("workload", "", "compile, serve or simulate")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Float64("seconds", 15, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	)
	flag.Parse()
	run, ok := map[string]func(*bench) error{
		"compile":  runCompile,
		"serve":    runServe,
		"simulate": runSimulate,
	}[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload compile|serve|simulate --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		metrics: map[string]metric{}, det: map[string]int64{},
	}
	if b.trace {
		for _, m := range perLayer {
			b.set(m[0], 0)
		}
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if err := b.compareDeterminism(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if b.trace {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		b.set("peak_rss_mb", rss)
	} else {
		for name := range endToEnd {
			if _, ok := b.metrics[name]; !ok {
				panic("perfbench: workload did not report " + name)
			}
		}
	}
	out, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
	if b.failed > 0 {
		os.Exit(1)
	}
}

// compareDeterminism checks the run's deterministic counts against the
// counts an earlier run of the same binary with the same workload, seed
// and window recorded, or records them when this is the first such run.
// Every differing count is a failed check.
func (b *bench) compareDeterminism() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	name := fmt.Sprintf("det-%s-%s-%d-%s.json", hex.EncodeToString(h.Sum(nil))[:16],
		b.workload, b.seed, strconv.FormatFloat(b.seconds, 'g', -1, 64))
	path := filepath.Join(stateDir, name)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if b.failed > 0 {
			return nil // record only the counts of a correct run
		}
		data, err = json.Marshal(b.det)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]int64
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	b.compareCounts("an earlier same-seed run", want, b.det)
	return nil
}

// compareCounts counts one check per deterministic count and fails each
// that differs between want and got.
func (b *bench) compareCounts(what string, want, got map[string]int64) {
	names := make([]string, 0, len(want)+len(got))
	for k := range want {
		names = append(names, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		w, wok := want[k]
		g, gok := got[k]
		b.check(wok && gok && w == g, "deterministic count %s = %d here, %d in %s", k, g, w, what)
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median returns the middle value (the mean of the two middle values
// for an even count) of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p50, p90, p95, p99 and p99.9 that has at
// least ten samples beyond it, or the maximum when even the median has
// fewer than ten.
func tail(xs []float64) float64 {
	n := float64(len(xs))
	best := 1.0
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if (1-q)*n >= 10 {
			best = q
		}
	}
	return percentile(xs, best)
}

// percentile returns the q-quantile of xs by nearest rank, or 0 for
// none.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// geomean is the geometric mean of positive values.
func geomean(xs ...float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// medianSetup runs a workload's set-up n times, keeps the last one's
// product, and returns it with the median set-up time.
func medianSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var out T
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		out = v
	}
	return out, median(times), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
