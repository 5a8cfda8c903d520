package fleet

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ixp"
	"repro/internal/pktgen"
)

// testHeal is an aggressive policy so tests don't wait out production
// backoffs.
func testHeal() *HealPolicy {
	return &HealPolicy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond, Probation: 50 * time.Millisecond, Seed: 7}
}

// pacedStream wraps stream(total) so that, while a wedge is waiting on
// its heal, packets trickle instead of racing: the dispatcher keeps
// looping (and applying re-admissions) and plenty of stream remains to
// land on the healed chip.
func pacedStream(total int64, live *Live) Source {
	inner := stream(total)
	return func() *pktgen.Packet {
		if live.Wedges.Load() > live.Heals.Load() {
			time.Sleep(500 * time.Microsecond)
		}
		return inner()
	}
}

// TestHealRestoresPlacementAndDigests: after a wedge→heal cycle the
// re-admitted chip reclaims its rendezvous flows, so final placement
// equals a fault-free run's and per-flow digests are bit-identical —
// the §15 contract.
func TestHealRestoresPlacementAndDigests(t *testing.T) {
	w := testWorkload(t)
	clean := mustRun(t, w, stream(4000), testOptions(3))

	plan, err := fault.Parse("fleet/chip_wedge@5")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	o := testOptions(3)
	o.Heal = testHeal()
	o.Live = NewLive(3)
	res := mustRun(t, w, pacedStream(4000, o.Live), o)

	if res.Wedges == 0 {
		t.Fatal("fault plan produced no wedge")
	}
	if res.Heals == 0 {
		t.Fatalf("wedged chip was never re-admitted (wedges %d, probes %d)", res.Wedges, res.Probes)
	}
	if res.Dropped != 0 || res.Delivered != res.Generated {
		t.Fatalf("heal cycle lost packets: generated %d delivered %d dropped %d",
			res.Generated, res.Delivered, res.Dropped)
	}
	for i := range res.Chips {
		if res.Chips[i].Wedged {
			t.Fatalf("chip %d still drained at run end despite healing", i)
		}
	}
	if len(res.FlowChips) != len(clean.FlowChips) {
		t.Fatalf("flow set changed: %d vs %d flows", len(res.FlowChips), len(clean.FlowChips))
	}
	for f, want := range clean.FlowChips {
		if got := res.FlowChips[f]; got != want {
			t.Fatalf("flow %d ended on chip %d, fault-free placement is chip %d", f, got, want)
		}
	}
	for f, want := range clean.FlowDigests {
		if got := res.FlowDigests[f]; got != want {
			t.Fatalf("flow %d digest %#x differs from fault-free %#x across wedge→heal", f, got, want)
		}
	}
}

// TestRunLeavesNoGoroutines: once a 3-chip run through wedges and
// heals returns, every worker, the healer and every heal goroutine
// have exited.
func TestRunLeavesNoGoroutines(t *testing.T) {
	w := testWorkload(t)
	baseline := runtime.NumGoroutine()
	plan, err := fault.Parse("fleet/chip_wedge@3:2, fleet/probe_fail@1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	o := testOptions(3)
	o.Heal = testHeal()
	o.Live = NewLive(3)
	res := mustRun(t, w, pacedStream(4000, o.Live), o)
	if res.Wedges == 0 || res.Heals == 0 {
		t.Fatalf("wedges %d, heals %d: the plan did not exercise a heal", res.Wedges, res.Heals)
	}
	// A goroutine that called wg.Done may still be retiring; give the
	// runtime a moment.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > baseline {
		t.Fatalf("%d goroutines after the run, %d before", n, baseline)
	}
}

// TestHealProbeBackoff: failed probes climb the backoff ladder and the
// probe/heal ledger stays honest — fleet/probe_fail consumes probes
// without heals until the window passes.
func TestHealProbeBackoff(t *testing.T) {
	plan, err := fault.Parse("fleet/chip_wedge@3, fleet/probe_fail@1:2")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	w := testWorkload(t)
	o := testOptions(3)
	o.Heal = testHeal()
	o.Live = NewLive(3)
	res := mustRun(t, w, pacedStream(4000, o.Live), o)
	if res.Heals == 0 {
		t.Fatalf("no heal after probe failures cleared (probes %d)", res.Probes)
	}
	if res.Probes < 3 {
		t.Fatalf("probes %d, want >= 3 (two injected failures before success)", res.Probes)
	}
	if res.Delivered != res.Generated || res.Dropped != 0 {
		t.Fatalf("lost packets across failed probes: generated %d delivered %d", res.Generated, res.Delivered)
	}
}

// TestSimultaneousWedges: two chips wedged in the same dispatch window
// both drain, the survivor absorbs everything, and the books balance
// exactly (the mustRun Reconcile).
func TestSimultaneousWedges(t *testing.T) {
	plan, err := fault.Parse("fleet/chip_wedge@1:2")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	w := testWorkload(t)
	res := mustRun(t, w, stream(600), testOptions(3))
	if res.Wedges != 2 {
		t.Fatalf("wedges %d, want 2", res.Wedges)
	}
	dead := 0
	for i := range res.Chips {
		if res.Chips[i].Wedged {
			dead++
		}
	}
	if dead != 2 {
		t.Fatalf("%d chips drained, want 2 distinct chips", dead)
	}
	if res.Dropped != 0 || res.Delivered != res.Generated {
		t.Fatalf("double wedge lost packets: generated %d delivered %d dropped %d",
			res.Generated, res.Delivered, res.Dropped)
	}
	for f, n := range res.FlowPackets {
		if n != 600/8 {
			t.Fatalf("flow %d delivered %d packets, want %d", f, n, 600/8)
		}
	}
}

// TestSimultaneousWedgeAttribution: when poison packets kill several
// chips in the same window, every wedge carries a *ixp.RunError naming
// its own chip, and the accounting still reconciles even if the whole
// fleet dies.
func TestSimultaneousWedgeAttribution(t *testing.T) {
	w := testWorkload(t)
	alive := []int{0, 1, 2}
	// Two flows on two different chips, poisoned at the same seq so the
	// wedges land in the same dispatch window.
	fa := uint64(0)
	fb := uint64(0)
	for f := uint64(1); f < 8; f++ {
		if Shard(f, alive) != Shard(fa, alive) {
			fb = f
			break
		}
	}
	if fb == 0 {
		t.Fatal("all 8 flows shard to one chip; widen the search")
	}
	poison := *w
	poison.Stage = func(chip *ixp.Chip, slot int, p *pktgen.Packet) []uint32 {
		base := uint32(0x100 + slot*0x10)
		copy(chip.SDRAM()[base:], p.Words[:2])
		if (p.Flow == fa || p.Flow == fb) && p.Seq == 3 {
			return []uint32{uint32(1 << 19), p.Words[2]} // unaligned SDRAM address
		}
		return []uint32{base, p.Words[2]}
	}
	res, err := Run(&poison, stream(600), testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if res.Wedges < 2 {
		t.Fatalf("wedges %d, want >= 2 (flows %d and %d poisoned on different chips)", res.Wedges, fa, fb)
	}
	attributed := 0
	for i := range res.Chips {
		if !res.Chips[i].Wedged {
			continue
		}
		var re *ixp.RunError
		if !errors.As(res.Chips[i].WedgeErr, &re) {
			t.Fatalf("chip %d wedge error %v carries no *ixp.RunError", i, res.Chips[i].WedgeErr)
		}
		if re.Chip != res.Chips[i].Chip {
			t.Fatalf("chip %d wedge attributed to chip %d", res.Chips[i].Chip, re.Chip)
		}
		attributed++
	}
	if attributed < 2 {
		t.Fatalf("only %d attributed wedges", attributed)
	}
}

// TestIdleSource: Options.Idle keeps the run alive across source gaps —
// packets admitted before a gap are flushed and delivered without
// waiting for future arrivals.
func TestIdleSource(t *testing.T) {
	w := testWorkload(t)
	inner := stream(200)
	calls := 0
	src := func() *pktgen.Packet {
		calls++
		if calls%3 == 0 {
			return nil // simulate "nothing ready right now"
		}
		return inner()
	}
	done := false
	o := testOptions(2)
	o.Live = NewLive(2)
	o.Idle = func() bool {
		if o.Live.Generated.Load() >= 200 {
			done = true
		}
		return !done
	}
	res := mustRun(t, w, src, o)
	if res.Generated != 200 || res.Delivered != 200 {
		t.Fatalf("idle-mode run: generated %d delivered %d, want 200/200", res.Generated, res.Delivered)
	}
	if res.Status != StatusOK {
		t.Fatalf("status %v, want ok", res.Status)
	}
}
