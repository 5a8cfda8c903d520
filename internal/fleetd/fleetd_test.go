package fleetd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
)

var soakWL struct {
	sync.Once
	w   *fleet.Workload
	err error
}

// soakWorkload compiles the synthetic sum kernel once for the whole
// test binary.
func soakWorkload(t *testing.T) *fleet.Workload {
	t.Helper()
	soakWL.Do(func() { soakWL.w, soakWL.err = fleet.Compile("sum", nil) })
	if soakWL.err != nil {
		t.Fatal(soakWL.err)
	}
	return soakWL.w
}

func testConfig(t *testing.T, chips int) Config {
	return Config{
		Workload: soakWorkload(t),
		Fleet: fleet.Options{Chips: chips, Engines: 2, Threads: 2,
			Heal: &fleet.HealPolicy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond, Probation: 50 * time.Millisecond, Seed: 7}},
		AuditEvery: 20 * time.Millisecond,
		OnViolation: func(r *AuditReport) {
			t.Errorf("auditor violation: [%s] %s", r.Rule, r.Detail)
		},
	}
}

// TestDaemonBoundedRun: a MaxPackets run drains itself — exact
// conservation, nothing shed (unpaced), placement trivially restored,
// no goroutine leak (Run's built-in check), no auditor noise.
func TestDaemonBoundedRun(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.MaxPackets = 2000
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != 2000 || rep.Shed != 0 || rep.Result.Delivered != 2000 {
		t.Fatalf("offered %d shed %d delivered %d, want 2000/0/2000",
			rep.Offered, rep.Shed, rep.Result.Delivered)
	}
	if !rep.PlacementRestored {
		t.Fatal("placement not at the rendezvous assignment after a clean run")
	}
	if rep.Violations != 0 {
		t.Fatalf("%d auditor violations on a clean run", rep.Violations)
	}
}

// TestDaemonShutdownDrains: POST /shutdown begins a graceful drain —
// everything admitted before the drain still delivers, and the status
// endpoint reports the drain.
func TestDaemonShutdownDrains(t *testing.T) {
	cfg := testConfig(t, 2)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	type ran struct {
		rep *Report
		err error
	}
	done := make(chan ran, 1)
	go func() {
		rep, err := d.Run()
		done <- ran{rep, err}
	}()

	// Let real traffic flow before draining.
	deadline := time.Now().Add(30 * time.Second)
	for d.live.Delivered.Load() < 500 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never delivered 500 packets")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/shutdown", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/shutdown: HTTP %d", resp.StatusCode)
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.rep.Result.Delivered < 500 {
		t.Fatalf("delivered %d, want >= 500", r.rep.Result.Delivered)
	}
	if r.rep.Admitted != r.rep.Result.Generated {
		t.Fatalf("admitted %d != generated %d after drain", r.rep.Admitted, r.rep.Result.Generated)
	}

	// The handler still serves after Run returned; status shows the
	// drained ledger.
	sresp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Status
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Draining || st.Delivered != r.rep.Result.Delivered || st.InFlight != 0 {
		t.Fatalf("status after drain: %+v", st)
	}
}

// TestDaemonShedsUnderOverload: a paced rate far beyond fleet capacity
// with a tiny ingest queue must shed — and every shed packet is on the
// ledger (Run verifies offered == shed + generated).
func TestDaemonShedsUnderOverload(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Rate = 2_000_000
	cfg.IngestCap = 64
	cfg.MaxPackets = 20_000
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("2M pps into a 64-deep queue shed nothing")
	}
	if rep.Offered != rep.Shed+rep.Result.Generated {
		t.Fatalf("ledger: offered %d != shed %d + generated %d",
			rep.Offered, rep.Shed, rep.Result.Generated)
	}
	if rep.Result.Delivered != rep.Result.Generated {
		t.Fatalf("admitted packets lost: generated %d delivered %d",
			rep.Result.Generated, rep.Result.Delivered)
	}
}

// TestDaemonHealsThroughChaos: a timed wedge schedule under live load
// — chips wedge on the wall clock, heal back, and the drain still
// reconciles exactly.
func TestDaemonHealsThroughChaos(t *testing.T) {
	plan, err := fault.Parse("fleet/chip_wedge@t=50ms+every=250ms+until=800ms")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()

	cfg := testConfig(t, 3)
	cfg.Rate = 5000
	cfg.IngestCap = 1024
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type ran struct {
		rep *Report
		err error
	}
	done := make(chan ran, 1)
	go func() {
		rep, err := d.Run()
		done <- ran{rep, err}
	}()
	time.Sleep(1200 * time.Millisecond)
	d.Shutdown()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.rep.Result.Wedges == 0 {
		t.Fatal("timed chaos plan produced no wedge")
	}
	if r.rep.Result.Heals == 0 {
		t.Fatalf("no chip healed (%d wedges, %d probes)", r.rep.Result.Wedges, r.rep.Result.Probes)
	}
	if r.rep.Violations != 0 {
		t.Fatalf("%d auditor violations during chaos", r.rep.Violations)
	}
}

// TestAuditorCatchesCorruption: poisoning the live ledger mid-run must
// trip the conservation rule — the auditor exists to crash exactly
// this case.
func TestAuditorCatchesCorruption(t *testing.T) {
	cfg := testConfig(t, 2)
	caught := make(chan *AuditReport, 1)
	cfg.OnViolation = func(r *AuditReport) {
		select {
		case caught <- r:
		default:
		}
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type ran struct {
		rep *Report
		err error
	}
	done := make(chan ran, 1)
	go func() {
		rep, err := d.Run()
		done <- ran{rep, err}
	}()
	// Fabricate resolved packets that were never generated.
	d.live.Dropped.Add(1 << 40)
	var rep *AuditReport
	select {
	case rep = <-caught:
	case <-time.After(10 * time.Second):
		t.Fatal("auditor never flagged the poisoned ledger")
	}
	if rep.Rule != "conservation" {
		t.Fatalf("violated rule %q, want conservation", rep.Rule)
	}
	d.Shutdown()
	r := <-done
	if r.err == nil {
		t.Fatal("Run's final reconcile accepted the poisoned ledger")
	}
	if r.rep != nil && r.rep.Violations == 0 {
		t.Fatal("violation not recorded in the report")
	}
}
