// Package fleetd is the long-running traffic daemon around the fleet
// harness (DESIGN.md §15): where internal/fleet models one finite
// batch run, fleetd keeps an N-chip fleet on the wire indefinitely —
// generated load is paced through a bounded ingest queue (admission
// control: overflow is shed and counted, never silently lost), wedged
// chips heal back via the fleet's re-admission machinery, a live
// auditor goroutine continuously checks the conservation and liveness
// invariants, and SIGTERM//shutdown triggers a graceful drain that
// runs every in-flight batch to completion before the final reconcile.
package fleetd

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pktgen"
)

// Admission-control counters (DESIGN.md §15): offered = admitted +
// shed, always.
var (
	cOffered  = obs.NewCounter("fleetd/offered")
	cAdmitted = obs.NewCounter("fleetd/admitted")
	cShed     = obs.NewCounter("fleet/shed")
)

// Config sizes a daemon. Zero values select the documented defaults.
type Config struct {
	// Workload is the packet program the fleet serves (fleet.Compile or
	// a hand-built adapter). Required.
	Workload *fleet.Workload
	// Fleet sizes the chip fleet. The daemon owns Heal/Idle/Live on
	// this struct; set chips/engines/threads/rings here.
	Fleet fleet.Options
	// Heal overrides the re-admission policy (nil = fleet defaults —
	// healing is always on in a daemon).
	Heal *fleet.HealPolicy
	// Flows is the number of distinct flows generated (default 64).
	Flows int
	// Payload is the per-packet payload size in bytes (default 8).
	Payload int
	// Seed seeds the flow generator (default 1).
	Seed int64
	// Rate is the offered load in packets/second. 0 means unpaced: the
	// generator blocks when the ingest queue is full and nothing is
	// shed. A positive rate paces offers on the wall clock and sheds
	// (counted, fleet/shed) when the queue cannot absorb them.
	Rate int64
	// IngestCap bounds the admission queue (default 4096).
	IngestCap int
	// MaxPackets stops the generator after offering this many packets
	// (0 = run until Shutdown); the daemon then drains and returns.
	MaxPackets int64
	// AuditEvery is the live auditor's cadence (default 100ms).
	AuditEvery time.Duration
	// GoroutineSlack is the allowed goroutine growth over the run
	// baseline before the auditor flags a leak (default 48).
	GoroutineSlack int
	// StallTicks is how many consecutive audit ticks with work
	// outstanding but zero delivery/drop progress constitute a stalled
	// fleet (default 100; at the default cadence, ten seconds).
	StallTicks int
	// OnViolation handles an auditor violation. nil = print the report
	// and exit(3) — a corrupt daemon must die loudly, not serve on.
	OnViolation func(*AuditReport)
}

func (c Config) withDefaults() Config {
	if c.Flows <= 0 {
		c.Flows = 64
	}
	if c.Payload <= 0 {
		c.Payload = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.IngestCap <= 0 {
		c.IngestCap = 4096
	}
	if c.AuditEvery <= 0 {
		c.AuditEvery = 100 * time.Millisecond
	}
	if c.GoroutineSlack <= 0 {
		c.GoroutineSlack = 48
	}
	if c.StallTicks <= 0 {
		c.StallTicks = 100
	}
	if c.Heal == nil {
		c.Heal = &fleet.HealPolicy{}
	}
	return c
}

// Report is the daemon's final accounting, produced by Run after the
// drain completes. Offered == Shed + Result.Generated exactly; the
// Result's own ledger is verified by Reconcile before Run returns.
type Report struct {
	Result   *fleet.Result
	Offered  int64 // packets the generator produced
	Admitted int64 // packets accepted into the ingest queue
	Shed     int64 // packets refused at admission (counted drops)

	// PlacementRestored is true when every chip was alive at the end
	// and every flow's final owner equals its rendezvous owner over the
	// full chip set — the wedge→heal cycle left no displaced flows.
	PlacementRestored bool
	// GoroutineBaseline/GoroutinesEnd bracket the run for the leak
	// check: End is sampled after the drain settled.
	GoroutineBaseline int
	GoroutinesEnd     int
	// Violations counts auditor rules that fired (nonzero only when
	// Config.OnViolation chose not to crash).
	Violations int64
	Uptime     time.Duration
}

// Daemon is one running fleetd instance: build with New, serve
// Handler, call Run (blocking) and Shutdown.
type Daemon struct {
	cfg  Config
	live *fleet.Live

	ingest  chan *pktgen.Packet
	stopGen chan struct{}
	genOnce sync.Once

	offered  atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64

	stopAudit  chan struct{}
	violations atomic.Int64

	start    time.Time
	draining atomic.Bool

	// pending stashes a packet the Idle poll received; only the
	// dispatcher goroutine (source + idle callbacks) touches it.
	pending *pktgen.Packet
}

// New validates the config and builds a Daemon. Run starts the fleet.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload == nil {
		return nil, fmt.Errorf("fleetd: Config.Workload is required")
	}
	cfg.Fleet = cfg.Fleet.Normalize()
	d := &Daemon{
		cfg:       cfg,
		live:      fleet.NewLive(cfg.Fleet.Chips),
		ingest:    make(chan *pktgen.Packet, cfg.IngestCap),
		stopGen:   make(chan struct{}),
		stopAudit: make(chan struct{}),
	}
	return d, nil
}

// Shutdown begins the graceful drain: the generator stops offering,
// everything already admitted runs to completion, and Run returns its
// report. Idempotent; safe from any goroutine (HTTP handler, signal
// handler).
func (d *Daemon) Shutdown() {
	d.draining.Store(true)
	d.genOnce.Do(func() { close(d.stopGen) })
}

// generate paces offered load into the bounded ingest queue until
// MaxPackets or Shutdown, then closes the queue — end of stream for
// the fleet source.
func (d *Daemon) generate() {
	defer close(d.ingest)
	gen := pktgen.NewFlowGen(d.cfg.Workload.Kind, d.cfg.Seed, d.cfg.Flows, d.cfg.Payload)
	var interval time.Duration
	if d.cfg.Rate > 0 {
		interval = time.Duration(int64(time.Second) / d.cfg.Rate)
	}
	next := time.Now()
	for n := int64(0); d.cfg.MaxPackets == 0 || n < d.cfg.MaxPackets; n++ {
		select {
		case <-d.stopGen:
			return
		default:
		}
		p := gen.Next()
		d.offered.Add(1)
		cOffered.Inc()
		if interval > 0 {
			// Paced admission: never block the clock on a full queue —
			// shed honestly instead.
			next = next.Add(interval)
			if wait := time.Until(next); wait > time.Millisecond {
				select {
				case <-time.After(wait):
				case <-d.stopGen:
					// Already on the offered ledger; a drain refusal is a
					// shed, never a silent disappearance.
					d.shed.Add(1)
					cShed.Inc()
					return
				}
			} else if wait < -time.Second {
				next = time.Now() // fell behind; don't burst to catch up
			}
			select {
			case d.ingest <- p:
				d.admitted.Add(1)
				cAdmitted.Inc()
			default:
				d.shed.Add(1)
				cShed.Inc()
			}
			continue
		}
		// Unpaced: backpressure blocks the generator; nothing is shed
		// until a drain refuses the packet in hand.
		select {
		case d.ingest <- p:
			d.admitted.Add(1)
			cAdmitted.Inc()
		case <-d.stopGen:
			d.shed.Add(1)
			cShed.Inc()
			return
		}
	}
}

// source is the fleet's packet source: non-blocking, so an empty
// ingest queue turns into an idle tick instead of a stall.
func (d *Daemon) source() *pktgen.Packet {
	if p := d.pending; p != nil {
		d.pending = nil
		return p
	}
	select {
	case p, ok := <-d.ingest:
		if !ok {
			return nil // drained and closed: end of stream
		}
		return p
	default:
		return nil
	}
}

// idle paces the dispatcher while the queue is empty: wait briefly for
// the next packet (stashing it for source) and report whether the
// stream is still open.
func (d *Daemon) idle() bool {
	select {
	case p, ok := <-d.ingest:
		if !ok {
			return false
		}
		d.pending = p
		return true
	case <-time.After(time.Millisecond):
		return true
	}
}

// Run starts the generator, the auditor, and the fleet, and blocks
// until the stream ends (Shutdown or MaxPackets) and the drain
// completes. The returned Report's ledger has been verified: a non-nil
// error means the daemon's own accounting failed, not the workload.
func (d *Daemon) Run() (*Report, error) {
	d.start = time.Now()
	baseline := runtime.NumGoroutine()

	opts := d.cfg.Fleet
	opts.Heal = d.cfg.Heal
	opts.Live = d.live
	opts.Idle = d.idle

	go d.generate()
	go d.audit(baseline)

	res, err := fleet.Run(d.cfg.Workload, d.source, opts)
	close(d.stopAudit)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Result:            res,
		Offered:           d.offered.Load(),
		Admitted:          d.admitted.Load(),
		Shed:              d.shed.Load(),
		GoroutineBaseline: baseline,
		Violations:        d.violations.Load(),
		Uptime:            time.Since(d.start),
	}
	if err := res.Reconcile(); err != nil {
		return rep, err
	}
	if rep.Offered != rep.Shed+res.Generated {
		return rep, fmt.Errorf("fleetd: %d offered != %d shed + %d generated",
			rep.Offered, rep.Shed, res.Generated)
	}
	if rep.Admitted != res.Generated {
		return rep, fmt.Errorf("fleetd: %d admitted != %d generated", rep.Admitted, res.Generated)
	}
	rep.PlacementRestored = placementRestored(res, opts.Chips)

	// Drain-leak check: the generator, auditor, fleet workers and
	// healer are all joined by now; give the runtime a moment
	// to retire exiting goroutines before sampling.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep.GoroutinesEnd = runtime.NumGoroutine()
		if rep.GoroutinesEnd <= baseline || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rep.GoroutinesEnd > baseline+2 {
		return rep, fmt.Errorf("fleetd: drain leaked goroutines: %d at exit, %d at start",
			rep.GoroutinesEnd, baseline)
	}
	return rep, nil
}

// placementRestored reports whether the final flow placement equals
// the rendezvous assignment over the full chip set — meaningful only
// when every chip ended the run alive (otherwise flows legitimately
// live elsewhere).
func placementRestored(res *fleet.Result, chips int) bool {
	for i := range res.Chips {
		if res.Chips[i].Wedged {
			return false
		}
	}
	all := make([]int, chips)
	for i := range all {
		all[i] = i
	}
	for f, ci := range res.FlowChips {
		if fleet.Shard(f, all) != ci {
			return false
		}
	}
	return true
}
