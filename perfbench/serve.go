package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workloads"
)

// The serve workload is edit-compile-debug traffic against novad: an
// open loop of seeded arrivals at serveRate requests/s, each timed from
// when it was due, over one HTTP/2 connection to an in-process server
// (Workers: 2; every request asks for workers: 1). The population is
// NAT plus programs from the benchmark's own generator. NAT and the
// first serveKnown generated programs are compiled during set-up, as if
// from an earlier session; the window then starts new generated
// programs at evenly spaced times, so every run seed compiles the same
// programs cold. Every other arrival picks NAT with probability
// serveNATShare, or else a generated program by Zipf popularity over
// recency (the newest is the most popular) among those started at least
// serveSettle earlier, the time a developer takes to read a first
// compile's result. It sends either the program's exact text or a fresh
// cosmetic edit (a comment, whitespace, or a renamed let). The first
// sight of a program is a miss, a repeated text is a source_hit, and an
// unseen text of a seen program is a model hit. The requests of one
// program are sent one at a time, so the tier each request reaches is
// known in advance and checked. The run seed draws the timing, the
// popularity and the edits.
//
// Every constant of the mix below is an assumption, not a measurement:
// no recorded novad session exists to fit it to. README.md gives the
// reasoning for each and the tier shares the mix produces.

const (
	serveRate      = 40.0   // offered requests per second
	serveLimitMS   = 1000.0 // latency limit for goodput
	serveNATShare  = 0.1    // share of arrivals that pick NAT
	serveKnown     = 6      // generated programs compiled during set-up
	serveNewShare  = 0.02   // new programs started, as a share of all requests
	serveEditShare = 0.7    // share of arrivals that send a cosmetic edit
	serveSettle    = 1.0    // seconds before a started program is picked again
	serveZipfS     = 1.2    // Zipf exponent of popularity by recency
	servePoolSeed  = 7001   // generator seed of the first generated program
)

// serveTailQ is the percentile tail_ms reports. The p95 of the mix
// falls between the generated programs' model hits and NAT's, where few
// requests lie, and moved by up to 35 % between seeds; the p90 lies
// among NAT's hits and the queued generated ones.
const serveTailQ = 0.9

// serveMaxResidualPct is the stated bound on the share of request time
// that no layer of the system accounts for: the HTTP client, TLS and
// HTTP/2 framing on both ends of the loopback connection, including
// their wait for a processor while novad's two workers compile. It was
// 12-15 % on a 2-vCPU host.
const serveMaxResidualPct = 25.0

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the window's start
	prog int           // 0 is NAT, k > 0 the k-th generated program
	src  string
}

// reply is the subset of server.CompileResponse the checks read, plus
// the body with its timing and tier fields removed.
type reply struct {
	outcome   string
	elapsedMS float64
	obj       float64
	moves     int
	spills    int
	body      string
}

// served is one request's outcome as the client saw it.
type served struct {
	arrival
	ok        bool    // HTTP 200 and every check passed
	latency   float64 // ms from due time to response; +Inf when failed
	service   float64 // ms from send to response
	elapsedMS float64 // the server's own elapsed_ms
	outcome   string
	lateMS    float64 // how late the generator handed the request on
}

// program returns the source of population member k.
func program(k int) string {
	if k == 0 {
		return workloads.NATSource
	}
	return genProgram(rand.New(rand.NewSource(servePoolSeed+int64(k))), 3+k%3)
}

// schedule draws the seeded arrivals of one window: serveRate ×
// seconds requests at uniformly random times (a Poisson process given
// its count, so every seed offers the same load). The NAT and edit
// shares are exact quotas placed at random, so every seed sends the
// same number of requests to each tier and of NAT's to each tier: the
// latency percentiles then do not shift with the seed's mix.
func schedule(seed int64, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, serveZipfS, 1, 1<<16)
	n := int(math.Round(seconds * serveRate))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * seconds
	}
	sort.Float64s(times)
	// started[k-1] is when generated program k started; the known ones
	// started long before the window, the others at evenly spaced times.
	started := make([]float64, serveKnown)
	for k := range started {
		started[k] = math.Inf(-1)
	}
	newPrograms := int(math.Round(float64(n) * serveNewShare))
	var out []arrival
	for i := 0; i < newPrograms; i++ {
		at := (float64(i) + 0.5) * seconds / float64(newPrograms)
		started = append(started, at)
		k := len(started)
		out = append(out, arrival{due: time.Duration(at * float64(time.Second)), prog: k, src: program(k)})
	}
	isNAT := quota(rng, n, serveNATShare)
	nat := 0
	for _, b := range isNAT {
		if b {
			nat++
		}
	}
	// Edit quotas per group: [0] generated programs, [1] NAT.
	edit := [2][]bool{quota(rng, n-nat, serveEditShare), quota(rng, nat, serveEditShare)}
	var next [2]int
	edits := 0
	for i, t := range times {
		a := arrival{due: time.Duration(t * float64(time.Second))}
		g := 1
		if !isNAT[i] {
			g = 0
			eligible := 0
			for eligible < len(started) && started[eligible] <= t-serveSettle {
				eligible++
			}
			r := int(zipf.Uint64())
			for r >= eligible {
				r = int(zipf.Uint64())
			}
			a.prog = eligible - r
		}
		a.src = program(a.prog)
		if edit[g][next[g]] {
			edits++
			a.src = cosmeticEdit(rng, a.src, edits)
		}
		next[g]++
		out = append(out, a)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// quota returns n flags of which exactly share × n (rounded) are set,
// in seeded random order.
func quota(rng *rand.Rand, n int, share float64) []bool {
	f := make([]bool, n)
	for i := 0; i < int(math.Round(share*float64(n))); i++ {
		f[i] = true
	}
	rng.Shuffle(n, func(i, j int) { f[i], f[j] = f[j], f[i] })
	return f
}

// cosmeticEdit changes the text of src without changing its meaning:
// it adds a comment line, indents a line further, or renames one
// let-bound variable. n makes the edit's text unique.
func cosmeticEdit(rng *rand.Rand, src string, n int) string {
	lines := strings.Split(src, "\n")
	i := 1 + rng.Intn(len(lines)-1)
	switch rng.Intn(3) {
	case 0:
		lines = append(lines[:i], append([]string{fmt.Sprintf("  // edit %d", n)}, lines[i:]...)...)
	case 1:
		lines[i] = strings.Repeat(" ", 1+n%7) + lines[i] + strings.Repeat(" ", n)
	default:
		if v := letVar(lines); v != "" {
			return renameWord(src, v, fmt.Sprintf("%s_r%d", v, n))
		}
		lines = append(lines[:i], append([]string{fmt.Sprintf("  /* edit %d */", n)}, lines[i:]...)...)
	}
	return strings.Join(lines, "\n")
}

// letVar returns the first variable a `let v =` line binds, if any.
func letVar(lines []string) string {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == "let" && f[2] == "=" && isIdent(f[1]) {
			return f[1]
		}
	}
	return ""
}

func isIdent(s string) bool {
	for i, c := range s {
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return s != ""
}

// renameWord replaces every whole-word occurrence of old in src.
func renameWord(src, old, new string) string {
	var b strings.Builder
	for i := 0; i < len(src); {
		j := strings.Index(src[i:], old)
		if j < 0 {
			b.WriteString(src[i:])
			break
		}
		j += i
		end := j + len(old)
		before := j == 0 || !isIdent(src[j-1:j])
		after := end == len(src) || !isIdent("a"+src[end:end+1])
		b.WriteString(src[i:j])
		if before && after {
			b.WriteString(new)
		} else {
			b.WriteString(old)
		}
		i = end
	}
	return b.String()
}

// serveEnv is one in-process novad, the client's connection to it,
// and the replies to the set-up compiles of the known programs. The
// client speaks HTTP/2 over one TLS connection, so requests of
// different programs never wait behind each other in the client.
type serveEnv struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	known  map[int]*reply
}

// newServeEnv starts novad and compiles NAT and the known generated
// programs through it.
func newServeEnv() (*serveEnv, error) {
	// The cache holds every text of the window, so no entry is evicted
	// and each request's tier stays predictable.
	c := cache.New(cache.Config{MaxEntries: 1 << 14})
	e := &serveEnv{srv: server.New(server.Config{Cache: c, Workers: 2})}
	// A bench/handler span around novad's handler tells the server's own
	// time apart from the client's and the transport's.
	h := e.srv.Handler()
	e.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := obs.StartSpan("bench/handler")
		defer sp.End()
		h.ServeHTTP(w, r)
	}))
	e.ts.EnableHTTP2 = true
	e.ts.StartTLS()
	e.client = e.ts.Client()
	e.client.Timeout = 60 * time.Second
	e.known = map[int]*reply{}
	for k := 0; k <= serveKnown; k++ {
		rep, err := post(e.client, e.ts.URL+"/compile", arrival{prog: k, src: program(k)})
		if err == nil && rep.outcome != "miss" {
			err = fmt.Errorf("outcome %s, want miss", rep.outcome)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up compile of program %d: %w", k, err)
		}
		e.known[k] = rep
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
	e.srv.Close()
}

func runServe(b *bench) error {
	// Set-up draws the inputs, starts novad and compiles the known
	// programs.
	var env *serveEnv
	arrivals, setup, err := medianSetup(3, func() ([]arrival, error) {
		if env != nil {
			env.close()
		}
		arrivals := schedule(b.seed, b.seconds)
		var err error
		env, err = newServeEnv()
		return arrivals, err
	})
	if err != nil {
		return err
	}
	if err := serveWarmUp(b); err != nil {
		env.close()
		return err
	}

	if !b.trace {
		defer env.close()
		res, window := servePass(b, env, arrivals)
		b.set("setup_s", setup)
		lat := latencies(res, "")
		b.set("p50_ms", median(lat))
		b.set("tail_ms", percentile(lat, serveTailQ))
		b.set("goodput_per_s", goodput(res, window))
		b.det = serveCounts(res)
		return nil
	}

	untraced, _ := servePass(b, env, arrivals)
	env.close()
	if env, err = newServeEnv(); err != nil {
		return err
	}
	defer env.close()
	rec := obs.Start("perfbench serve")
	res, window := servePass(b, env, arrivals)
	deltas := rec.CounterDeltas()
	spans, err := stopTrace(b, rec)
	if err != nil {
		return err
	}
	lat := latencies(res, "")
	b.set("serve_p50_ms", median(lat))
	b.set("serve_p95_ms", tail(lat))
	b.set("serve_hit_p50_ms", median(latencies(res, "hit")))
	b.set("serve_goodput_rps", goodput(res, window))
	b.set("trace.overhead_pct", 100*(median(lat)/median(latencies(untraced, ""))-1))

	var elapsed, overhead, late []float64
	e2e := 0.0
	for _, r := range res {
		elapsed = append(elapsed, r.elapsedMS)
		overhead = append(overhead, r.service-r.elapsedMS)
		e2e += r.service
		late = append(late, r.lateMS)
	}
	b.set("server.elapsed_p50_ms", median(elapsed))
	b.set("server.overhead_p50_ms", median(overhead))
	b.set("serve.gen_late_ms", tail(late))
	n := float64(len(res))
	for _, tier := range []string{"source_hits", "hits", "near_misses", "misses"} {
		b.set("cache."+tier, float64(deltas["cache/"+tier])/n)
	}
	setCounterMetrics(b, deltas, "")
	setSpanMetrics(b, spanTotals(spans), "")
	reportLayers(b, selfTimes(spans, "bench/request", "server/compile"), e2e, serveMaxResidualPct)
	b.compareCounts("the untraced pass", serveCounts(untraced), serveCounts(res))
	b.det = serveCounts(res)
	return nil
}

// serveWarmSeconds is the length of the warm-up traffic. Without it the
// first third of the window ran up to 50 % slower than the last, and
// by how much varied from run to run.
const serveWarmSeconds = 5.0

// serveWarmUp plays a few seconds of traffic, drawn from another seed,
// against a novad of its own that it then closes, so the process's heap
// and connection machinery are warm when the window starts. Its
// requests are checked like the window's.
func serveWarmUp(b *bench) error {
	env, err := newServeEnv()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	defer env.close()
	servePass(b, env, schedule(-1-b.seed, serveWarmSeconds))
	return nil
}

// servePass plays the arrivals against env. A generator sends each
// arrival at its due time to its program's client, which sends the
// program's requests one at a time in due order. It returns the
// outcomes in arrival order and the window from the first due time to
// the last response.
func servePass(b *bench, env *serveEnv, arrivals []arrival) ([]served, time.Duration) {
	res := make([]served, len(arrivals))
	queues := map[int]chan int{}
	for _, a := range arrivals {
		if queues[a.prog] == nil {
			// Sized to the arrivals, so the generator never blocks.
			queues[a.prog] = make(chan int, len(arrivals))
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex // guards b's check tally
	start := time.Now().Add(10 * time.Millisecond)
	for prog, q := range queues {
		wg.Add(1)
		go func(prog int, q chan int) {
			defer wg.Done()
			// The program's first reply, and the reply to each text sent.
			first := env.known[prog]
			texts := map[string]*reply{}
			if first != nil {
				texts[program(prog)] = first
			}
			for i := range q {
				r := &res[i]
				due := start.Add(r.due)
				want := "miss"
				if texts[r.src] != nil {
					want = "source_hit"
				} else if first != nil {
					want = "hit"
				}
				sp := obs.StartSpanTID("bench/request", 100+prog)
				t0 := time.Now()
				rep, err := post(env.client, env.ts.URL+"/compile", r.arrival)
				done := time.Now()
				sp.End()
				r.service = ms(done.Sub(t0))
				r.latency = ms(done.Sub(due))
				var problem string
				switch {
				case err != nil:
					problem = err.Error()
				case rep.outcome != want:
					problem = fmt.Sprintf("outcome %s, want %s", rep.outcome, want)
				case want == "source_hit" && rep.body != texts[r.src].body:
					problem = "source hit differs from the first response to that text"
				case want == "hit" && (math.Abs(rep.obj-first.obj) > 1e-9*math.Max(1, math.Abs(rep.obj)) ||
					rep.moves != first.moves || rep.spills != first.spills):
					problem = fmt.Sprintf("model hit allocation differs from the program's first response: obj %g/%g moves %d/%d spills %d/%d",
						rep.obj, first.obj, rep.moves, first.moves, rep.spills, first.spills)
				}
				if err == nil {
					r.outcome, r.elapsedMS = rep.outcome, rep.elapsedMS
					if first == nil {
						first = rep
					}
					if texts[r.src] == nil {
						texts[r.src] = rep
					}
				}
				r.ok = problem == ""
				if !r.ok {
					r.latency = math.Inf(1)
				}
				mu.Lock()
				b.check(r.ok, "request %d (program %d): %s", i, prog, problem)
				mu.Unlock()
			}
		}(prog, q)
	}
	for i, a := range arrivals {
		res[i].arrival = a
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res[i].lateMS = ms(time.Since(due))
		queues[a.prog] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	window := time.Since(start)
	summarize(res)
	return res, window
}

// summarize prints, per outcome, the request count and the median
// service and end-to-end latency on standard error.
func summarize(res []served) {
	by := map[string][]served{}
	for _, r := range res {
		by[r.outcome] = append(by[r.outcome], r)
	}
	for _, o := range []string{"miss", "hit", "source_hit", "near_miss", ""} {
		var svc, lat []float64
		for _, r := range by[o] {
			svc = append(svc, r.service)
			lat = append(lat, r.latency)
		}
		if len(svc) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %-10s n=%-4d service p50 %7.1f ms  latency p50 %7.1f ms  max %7.1f ms\n",
				o, len(svc), median(svc), median(lat), tail(lat))
		}
	}
}

// post sends one compile request and decodes the reply.
func post(c *http.Client, url string, a arrival) (*reply, error) {
	body, err := json.Marshal(server.CompileRequest{
		Name: fmt.Sprintf("p%d.nova", a.prog), Source: a.src, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var cr server.CompileResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return nil, err
	}
	rep := &reply{outcome: cr.Outcome, elapsedMS: cr.ElapsedMS, obj: cr.Obj, moves: cr.Moves, spills: cr.Spills}
	cr.Outcome, cr.ElapsedMS = "", 0
	canon, err := json.Marshal(cr)
	if err != nil {
		return nil, err
	}
	rep.body = string(canon)
	return rep, nil
}

// latencies returns the request latencies, restricted to one outcome
// when outcome is not empty.
func latencies(res []served, outcome string) []float64 {
	var out []float64
	for _, r := range res {
		if outcome == "" || r.outcome == outcome {
			out = append(out, r.latency)
		}
	}
	return out
}

// goodput is the rate of requests answered correctly within the limit.
func goodput(res []served, window time.Duration) float64 {
	n := 0
	for _, r := range res {
		if r.ok && r.latency <= serveLimitMS {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// serveCounts are the deterministic counts of one pass: requests per
// outcome.
func serveCounts(res []served) map[string]int64 {
	m := map[string]int64{"requests": int64(len(res))}
	for _, r := range res {
		m["outcome."+r.outcome]++
	}
	return m
}

// genProgram is the benchmark's Nova program generator, modelled on
// the end-to-end fuzzer's: n random straight-line statements over ALU
// ops, masked shifts, aggregate SRAM, scratch and SDRAM references, the
// hash unit and conditional expressions, then a bounded loop, with
// everything folded into the result.
func genProgram(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("fun main(p: word, q: word) -> word {\n")
	vars := []string{"p", "q"}
	fresh := 0
	newVar := func() string {
		fresh++
		return fmt.Sprintf("v%d", fresh)
	}
	pick := func() string { return vars[rng.Intn(len(vars))] }
	ops := []string{"+", "-", "^", "&", "|"}
	for i := 0; i < n; i++ {
		switch rng.Intn(9) {
		case 0, 1:
			v := newVar()
			fmt.Fprintf(&b, "  let %s = %s %s %s;\n", v, pick(), ops[rng.Intn(len(ops))], pick())
			vars = append(vars, v)
		case 2:
			v := newVar()
			fmt.Fprintf(&b, "  let %s = (%s >> %d) & 0xff;\n", v, pick(), 1+rng.Intn(16))
			vars = append(vars, v)
		case 3:
			k := 2 + rng.Intn(3)
			var names []string
			for j := 0; j < k; j++ {
				names = append(names, newVar())
			}
			fmt.Fprintf(&b, "  let (%s) = sram[%d]((%s & 0xff));\n", strings.Join(names, ", "), k, pick())
			vars = append(vars, names...)
		case 4:
			v := newVar()
			fmt.Fprintf(&b, "  let %s = scratch[1]((%s & 0x3f));\n", v, pick())
			vars = append(vars, v)
		case 5:
			k := 2 + rng.Intn(3)
			var xs []string
			for j := 0; j < k; j++ {
				xs = append(xs, pick())
			}
			fmt.Fprintf(&b, "  sram((%s & 0xff) | 0x100) <- (%s);\n", pick(), strings.Join(xs, ", "))
		case 6:
			v := newVar()
			fmt.Fprintf(&b, "  let %s = hash(%s);\n", v, pick())
			vars = append(vars, v)
		case 7:
			v := newVar()
			fmt.Fprintf(&b, "  let %s = if (%s < %s) %s else %s + 1;\n", v, pick(), pick(), pick(), pick())
			vars = append(vars, v)
		case 8:
			a, c := newVar(), newVar()
			fmt.Fprintf(&b, "  let (%s, %s) = sdram[2]((%s & 0x7e));\n", a, c, pick())
			fmt.Fprintf(&b, "  sdram((%s & 0x7e) | 0x80) <- (%s, %s);\n", pick(), c, a)
			vars = append(vars, a, c)
		}
	}
	fmt.Fprintf(&b, "  let acc = %s;\n  let i = 0;\n", pick())
	b.WriteString("  while (i < (q & 0x7)) {\n")
	fmt.Fprintf(&b, "    let acc = acc + sram[1]((acc & 0xff)) + %s;\n", pick())
	b.WriteString("    let i = i + 1;\n  }\n")
	expr := "acc"
	for i := 0; i < 3 && i < len(vars); i++ {
		expr += " ^ " + vars[len(vars)-1-i]
	}
	fmt.Fprintf(&b, "  %s\n}\n", expr)
	return b.String()
}
