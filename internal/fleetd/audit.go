package fleetd

// The live invariant auditor (DESIGN.md §15): a daemon that silently
// corrupts its ledger is worse than one that crashes, so a dedicated
// goroutine continuously re-derives the fleet's conservation and
// liveness invariants from the Live counters and kills the process
// (default OnViolation) with a diagnostic snapshot the moment one
// breaks.
//
// The Live ledger is a set of independent atomics, not a consistent
// snapshot, so every rule is phrased to be monotonic-safe:
//
//   - resolved <= generated: read delivered+dropped BEFORE generated.
//     Both only grow, and a packet is counted generated before it can
//     resolve, so any interleaving keeps the inequality.
//   - in-flight bound: read generated BEFORE delivered+dropped; the
//     late reads only shrink the difference, so an over-bound result
//     is real.
//   - liveness (alive == chips - wedges + heals) has transient
//     off-by-one windows while a wedge or heal is mid-update, so a
//     violation must hold with identical readings for several
//     consecutive ticks before it fires.
//   - progress and goroutine stability are trend rules over the tick
//     history, not instant reads.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/obs"
)

// AuditReport is the diagnostic snapshot handed to OnViolation when a
// live invariant breaks.
type AuditReport struct {
	// Rule names the violated invariant ("conservation", "inflight",
	// "liveness", "progress", "goroutines").
	Rule string
	// Detail is the human-readable violation with the observed values.
	Detail string
	// Counters is the obs counter snapshot at violation time.
	Counters obs.Snapshot
	// Goroutines is the goroutine count at violation time.
	Goroutines int
	// Stacks is the full goroutine dump for post-mortem debugging.
	Stacks string
}

// String renders the report as the crash diagnostic.
func (r *AuditReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleetd: INVARIANT VIOLATION [%s]: %s\n", r.Rule, r.Detail)
	fmt.Fprintf(&b, "--- counters (%d goroutines) ---\n", r.Goroutines)
	for _, name := range r.Counters.Names() {
		fmt.Fprintf(&b, "%s %d\n", name, r.Counters[name])
	}
	b.WriteString("--- goroutines ---\n")
	b.WriteString(r.Stacks)
	return b.String()
}

// violate builds the diagnostic report and dispatches it. The default
// handler prints and exits 3: a fleet with broken accounting must not
// keep serving.
func (d *Daemon) violate(rule, format string, args ...any) {
	d.violations.Add(1)
	var stacks strings.Builder
	pprof.Lookup("goroutine").WriteTo(&stacks, 1)
	rep := &AuditReport{
		Rule:       rule,
		Detail:     fmt.Sprintf(format, args...),
		Counters:   obs.TakeSnapshot(),
		Goroutines: runtime.NumGoroutine(),
		Stacks:     stacks.String(),
	}
	if d.cfg.OnViolation != nil {
		d.cfg.OnViolation(rep)
		return
	}
	fmt.Fprintln(os.Stderr, rep.String())
	os.Exit(3)
}

// audit is the live invariant auditor goroutine; baseline is the
// goroutine count before the daemon spawned anything.
func (d *Daemon) audit(baseline int) {
	t := time.NewTicker(d.cfg.AuditEvery)
	defer t.Stop()
	bound := d.cfg.Fleet.MaxInFlight()
	chips := int64(d.cfg.Fleet.Chips)
	var (
		liveMismatch int // consecutive ticks of a stable liveness mismatch
		lastW, lastH int64
		stall        int // consecutive ticks without progress
		lastResolved int64
		leak         int // consecutive ticks over the goroutine budget
	)
	for {
		select {
		case <-d.stopAudit:
			return
		case <-t.C:
		}

		// Conservation: resolved (read first) never exceeds generated.
		resolved := d.live.Delivered.Load() + d.live.Dropped.Load()
		gen := d.live.Generated.Load()
		if resolved > gen {
			d.violate("conservation", "delivered+dropped %d > generated %d", resolved, gen)
			return
		}

		// In-flight bound: generated (read first) minus resolved cannot
		// exceed what the fleet's queues can hold (Options.MaxInFlight).
		gen = d.live.Generated.Load()
		inflight := gen - d.live.Delivered.Load() - d.live.Dropped.Load()
		if inflight > bound {
			d.violate("inflight", "in-flight %d > bound %d (generated %d)", inflight, bound, gen)
			return
		}

		// Per-chip liveness: alive == chips - wedges + heals, but only
		// when the same readings persist — a worker mid-wedge legally
		// holds the ledger inconsistent for an instant.
		w, h := d.live.Wedges.Load(), d.live.Heals.Load()
		alive := d.live.Alive.Load()
		if alive == chips-w+h || w != lastW || h != lastH {
			liveMismatch = 0
		} else {
			liveMismatch++
			if liveMismatch >= 3 {
				d.violate("liveness", "alive %d != chips %d - wedges %d + heals %d (stable %d ticks)",
					alive, chips, w, h, liveMismatch)
				return
			}
		}
		lastW, lastH = w, h

		// Progress: packets outstanding but nothing resolving for
		// StallTicks means the fleet is wedged beyond its own recovery.
		if inflight > 0 && resolved == lastResolved {
			stall++
			if stall >= d.cfg.StallTicks {
				d.violate("progress", "%d packets in flight, no progress for %d ticks (%.1fs)",
					inflight, stall, (time.Duration(stall) * d.cfg.AuditEvery).Seconds())
				return
			}
		} else {
			stall = 0
		}
		lastResolved = resolved

		// Goroutine stability: heal and worker respawns balance out; a
		// sustained climb is a leak.
		if n := runtime.NumGoroutine(); n > baseline+d.cfg.GoroutineSlack {
			leak++
			if leak >= 3 {
				d.violate("goroutines", "%d goroutines, baseline %d + slack %d (sustained %d ticks)",
					n, baseline, d.cfg.GoroutineSlack, leak)
				return
			}
		} else {
			leak = 0
		}
	}
}
