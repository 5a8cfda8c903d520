package fleet

// Chip re-admission (DESIGN.md §15): a wedged chip is drained (the §13
// protocol), then probed back to life on a jittered exponential
// backoff, re-admitted with a fresh worker and a fresh simulator, and put
// on probation — a re-wedge inside the probation window doubles the
// next backoff instead of resetting it. Because routing recomputes the
// rendezvous hash over the *alive* set per packet, a re-admitted chip
// reclaims exactly the flows it owned before the wedge: steady-state
// placement is restored with no explicit migration step, and per-flow
// digests are unchanged because the per-packet digest is a pure
// function of the packet, not of the chip or slot that ran it.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ixp"
	"repro/internal/obs"
)

// Heal-cycle rollup counters (DESIGN.md §15) and the probe fault point:
// fleet/probe_fail makes a re-admission probe fail so chaos plans can
// exercise the backoff ladder.
var (
	cHeals  = obs.NewCounter("fleet/heals")
	cProbes = obs.NewCounter("fleet/probes")
	gAvail  = obs.NewGauge("fleet/availability_permille")

	pProbeFail = fault.NewPoint("fleet/probe_fail")
)

// healJitter spreads each heal backoff uniformly over ±20% of its
// nominal value, deterministically under HealPolicy.Seed.
const healJitter = 0.2

// HealPolicy enables chip re-admission: when Options.Heal is non-nil, a
// wedged chip is not drained forever — after a jittered exponential
// backoff it is probed (fresh chip, workload Init, fleet/probe_fail
// consulted) and, on success, re-admitted to the alive set with a
// fresh worker. The zero value selects every documented default.
type HealPolicy struct {
	// Base is the first probe delay after a wedge (default 50ms).
	Base time.Duration
	// Max caps the exponential backoff (default 2s).
	Max time.Duration
	// Probation is the window after a re-admission during which another
	// wedge doubles the next backoff instead of resetting the ladder
	// (default 1s).
	Probation time.Duration
	// Seed seeds the jitter RNG (default 1).
	Seed int64
}

// normalize fills in the documented defaults for unset fields.
func (hp HealPolicy) normalize() HealPolicy {
	if hp.Base <= 0 {
		hp.Base = 50 * time.Millisecond
	}
	if hp.Max <= 0 {
		hp.Max = 2 * time.Second
	}
	if hp.Max < hp.Base {
		hp.Max = hp.Base
	}
	if hp.Probation <= 0 {
		hp.Probation = time.Second
	}
	if hp.Seed == 0 {
		hp.Seed = 1
	}
	return hp
}

// Live is a run's continuously updated ledger, for observers (the
// fleetd auditor) that must watch a run in flight rather than wait for
// its Result. Pass one via Options.Live; Run updates it from the first
// packet on. All fields are atomics: individually exact, but a
// multi-field read is not a consistent snapshot — observers must use
// monotonic-safe read orders or double-read stability checks (see
// internal/fleetd's auditor).
type Live struct {
	// Generated counts packets pulled from the source.
	Generated atomic.Int64
	// Delivered counts packets that completed on some chip.
	Delivered atomic.Int64
	// Dropped counts packets lost with a counted cause.
	Dropped atomic.Int64
	// Requeued counts packets handed back for re-sharding.
	Requeued atomic.Int64
	// Wedges counts chip deaths (cumulative, heal cycles included).
	Wedges atomic.Int64
	// Heals counts successful re-admissions.
	Heals atomic.Int64
	// Probes counts re-admission probe attempts.
	Probes atomic.Int64
	// Alive is the currently alive chip count.
	Alive atomic.Int64
	// ChipBatches counts batches per chip; sized by init (or NewLive).
	ChipBatches []atomic.Int64
}

// NewLive builds a Live ledger sized for a fleet of chips — the shape
// Options.Live must have (Run sizes a nil ChipBatches itself).
func NewLive(chips int) *Live {
	return &Live{ChipBatches: make([]atomic.Int64, chips)}
}

// init sizes the per-chip slice, refusing a caller-provided ledger of
// the wrong shape (the caller is concurrently reading it, so Run must
// not reallocate it).
func (l *Live) init(chips int) error {
	if l.ChipBatches == nil {
		l.ChipBatches = make([]atomic.Int64, chips)
	}
	if len(l.ChipBatches) != chips {
		return fmt.Errorf("fleet: Options.Live sized for %d chips, fleet has %d (use NewLive)", len(l.ChipBatches), chips)
	}
	l.Alive.Store(int64(chips))
	return nil
}

// InFlight returns generated - delivered - dropped. Read in isolation
// it can be transiently off by in-progress updates; it is exact
// whenever the run is quiescent.
func (l *Live) InFlight() int64 {
	return l.Generated.Load() - l.Delivered.Load() - l.Dropped.Load()
}

// readmitCmd asks the dispatcher to bring a probed chip back into the
// alive set.
type readmitCmd struct {
	ci   int
	chip *ixp.Chip
}

// healState is the healer's per-chip backoff ladder.
type healState struct {
	mu       sync.Mutex
	rng      *rand.Rand
	k        []int       // consecutive wedge count per chip
	admitted []time.Time // last re-admission command per chip
}

func newHealState(chips int, seed int64) *healState {
	return &healState{
		rng:      rand.New(rand.NewSource(seed)),
		k:        make([]int, chips),
		admitted: make([]time.Time, chips),
	}
}

// bump records a wedge and returns the chip's consecutive wedge count:
// a wedge inside the probation window after the last re-admission
// climbs the ladder, anything later restarts it.
func (h *healState) bump(ci int, probation time.Duration) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.admitted[ci].IsZero() && time.Since(h.admitted[ci]) < probation {
		if h.k[ci] < 20 {
			h.k[ci]++
		}
	} else {
		h.k[ci] = 1
	}
	return h.k[ci]
}

// admit records the re-admission command time for probation tracking.
func (h *healState) admit(ci int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.admitted[ci] = time.Now()
}

// backoff returns the k-th rung of the jittered exponential ladder.
func (h *healState) backoff(hp HealPolicy, k int) time.Duration {
	d := hp.Base
	for i := 1; i < k && d < hp.Max; i++ {
		d *= 2
	}
	if d > hp.Max {
		d = hp.Max
	}
	h.mu.Lock()
	f := 1 - healJitter + 2*healJitter*h.rng.Float64()
	h.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// healer fans each wedge event out to a heal goroutine. It exits when
// the run's dispatcher finishes (s.done).
func (s *runState) healer() {
	defer s.hwg.Done()
	for {
		select {
		case <-s.done:
			return
		case ci := <-s.wedgeEvents:
			s.hwg.Add(1)
			go s.heal(ci)
		}
	}
}

// heal drives one chip through the re-admission ladder: sleep the
// jittered backoff, probe, retry with a doubled backoff on probe
// failure, and hand the probed chip to the dispatcher on success.
func (s *runState) heal(ci int) {
	defer s.hwg.Done()
	hp := s.healPolicy
	k := s.hs.bump(ci, hp.Probation)
	for {
		select {
		case <-s.done:
			return
		case <-time.After(s.hs.backoff(hp, k)):
		}
		s.live.Probes.Add(1)
		cProbes.Inc()
		if pProbeFail.Fire() {
			if k < 20 {
				k++
			}
			continue
		}
		chip := ixp.NewChip(s.o.MachineConfig(), s.o.Engines)
		chip.SetID(ci)
		if s.w.Init != nil {
			s.w.Init(chip)
		}
		select {
		case s.readmits <- readmitCmd{ci: ci, chip: chip}:
			s.hs.admit(ci)
		case <-s.done:
		}
		return
	}
}

// processHeals applies any pending re-admissions. Runs only on the
// dispatcher goroutine; reports whether a chip was re-admitted (the
// caller should flush, in case the drain loop routed work to it).
func (s *runState) processHeals() bool {
	if s.readmits == nil {
		return false
	}
	admitted := false
	for {
		select {
		case cmd := <-s.readmits:
			if s.readmit(cmd) {
				admitted = true
			}
		default:
			return admitted
		}
	}
}

// readmit brings a probed chip back: wait for the wedged worker to
// exit, re-route whatever it still held, restore the alive flag, and
// start a fresh worker. Runs only on the dispatcher goroutine.
func (s *runState) readmit(cmd readmitCmd) bool {
	ci := cmd.ci
	if s.alive[ci].Load() {
		return false // stale command; chip already serving
	}
	s.reclaim(ci, true)
	l := newLink()
	s.links[ci] = l
	s.chips[ci].Wedged = false
	s.chips[ci].Heals++
	s.heals++
	s.live.Heals.Add(1)
	cHeals.Inc()
	s.alive[ci].Store(true)
	n := s.nAlive.Add(1)
	gAlive.Set(n)
	s.live.Alive.Store(n)
	gAvail.Set(1000 * n / int64(s.o.Chips))
	s.wg.Add(1)
	go s.worker(ci, cmd.chip, l)
	return true
}
