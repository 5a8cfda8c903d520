package repro

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/fleetd"
)

// chaosPlan wedges a chip every 1.5s for the first 8s and fails the
// first two re-admission probes, forcing the backoff ladder to climb
// before each heal lands.
const chaosPlan = "fleet/chip_wedge@t=500ms+every=1500ms+until=8s,fleet/probe_fail@1:2"

// TestChaosSoak is the soak for the self-healing fleet daemon
// (DESIGN.md §15): a 4-chip fleetd at 20k packets/s under chaosPlan
// for 10 seconds of wall time. The fleet must wedge and heal at least
// three times, drop nothing, keep the live auditor quiet, finish with
// every flow back on its rendezvous chip, and leak no goroutines
// (fleetd.Run's drain check).
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("10 s fleetd soak")
	}
	const (
		chips    = 4
		rate     = 20_000 // packets/s offered
		ingest   = 2048
		soakFor  = 10 * time.Second
		minHeals = 3
	)
	plan, err := fault.Parse(chaosPlan)
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()

	w, err := fleet.Compile("sum", nil)
	if err != nil {
		t.Fatalf("compile sum: %v", err)
	}
	violations := make(chan *fleetd.AuditReport, 8)
	d, err := fleetd.New(fleetd.Config{
		Workload: w,
		Fleet: fleet.Options{Chips: chips, Engines: 2, Threads: 2,
			Heal: &fleet.HealPolicy{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Probation: 500 * time.Millisecond, Seed: 7}},
		Rate:       rate,
		IngestCap:  ingest,
		AuditEvery: 50 * time.Millisecond,
		OnViolation: func(r *fleetd.AuditReport) {
			select {
			case violations <- r:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	time.AfterFunc(soakFor, d.Shutdown)
	rep, err := d.Run()
	if rep != nil {
		res := rep.Result
		t.Logf("%v soak: offered %d = shed %d + generated %d; delivered %d, dropped %d",
			time.Since(start).Round(time.Millisecond), rep.Offered, rep.Shed, res.Generated, res.Delivered, res.Dropped)
		t.Logf("wedges %d, heals %d, probes %d, placement_restored=%v, goroutines %d (baseline %d)",
			res.Wedges, res.Heals, res.Probes, rep.PlacementRestored, rep.GoroutinesEnd, rep.GoroutineBaseline)
	}
	if err != nil {
		// Run's own error covers reconcile failures, ledger mismatches,
		// and the drain goroutine-leak check.
		t.Fatal(err)
	}

	select {
	case v := <-violations:
		t.Fatalf("auditor violation: [%s] %s", v.Rule, v.Detail)
	default:
	}
	if rep.Violations != 0 {
		t.Fatalf("%d auditor violations", rep.Violations)
	}
	res := rep.Result
	if res.Wedges < minHeals {
		t.Errorf("chaos plan produced only %d wedges, want >= %d", res.Wedges, minHeals)
	}
	if res.Heals < minHeals {
		t.Errorf("only %d of %d wedges healed, want >= %d", res.Heals, res.Wedges, minHeals)
	}
	if res.Probes < res.Heals {
		t.Errorf("probes %d < heals %d — every heal needs at least one probe", res.Probes, res.Heals)
	}
	if res.Dropped != 0 {
		t.Errorf("%d packets dropped — healing should have requeued them", res.Dropped)
	}
	if !rep.PlacementRestored {
		t.Errorf("flow placement not restored to the rendezvous assignment after the last heal")
	}
}
