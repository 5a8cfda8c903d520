package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ixp"
	"repro/internal/obs"
	"repro/internal/pktgen"
)

// Fleet-wide rollup counters (DESIGN.md §13); the per-chip figures
// live under fleet/chipN/*.
var (
	cGenerated = obs.NewCounter("fleet/packets")
	cDelivered = obs.NewCounter("fleet/delivered")
	cDropped   = obs.NewCounter("fleet/dropped")
	cRequeued  = obs.NewCounter("fleet/requeued")
	cBatches   = obs.NewCounter("fleet/batches")
	cCycles    = obs.NewCounter("fleet/cycles")
	cWedges    = obs.NewCounter("fleet/wedges")
	cResharded = obs.NewCounter("fleet/flows_resharded")
	gAlive     = obs.NewGauge("fleet/alive_chips")
)

// Chip-level fault points (DESIGN.md §13): fifo_drop loses one packet
// at the dispatcher's hand-off, sram_stall slows a chip's SRAM port for one batch
// (payload = extra latency cycles, default 64), chip_wedge kills the
// chip at a batch boundary so its flows must be re-sharded.
var (
	pFIFODrop  = fault.NewPoint("fleet/fifo_drop")
	pSRAMStall = fault.NewPoint("fleet/sram_stall")
	pChipWedge = fault.NewPoint("fleet/chip_wedge")
)

// mix64 is the splitmix64 finalizer, the hash behind rendezvous
// sharding and the per-packet output digests.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shard picks the chip owning a flow by rendezvous (highest-random-
// weight) hashing over the alive set: the alive chip maximizing a
// per-(flow, chip) hash wins. When a chip is drained only its flows
// move; every other flow keeps its chip — the property the recovery
// policy relies on. It returns -1 when no chip is alive.
func Shard(flow uint64, alive []int) int {
	best, bestScore := -1, uint64(0)
	for _, c := range alive {
		s := mix64(mix64(flow+1) ^ uint64(c)*0x9e3779b97f4a7c15)
		if best < 0 || s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// Source yields the packet stream to serve, nil when exhausted.
// pktgen.FlowGen.Take is the usual implementation.
type Source = func() *pktgen.Packet

// Options sizes a fleet run. The zero value means: 1 chip of
// ixp.NumEngines engines with 4 threads each, a 200M-cycle batch
// budget, and the standard fleet machine config.
type Options struct {
	Chips       int         // simulated IXP1200 chips (N)
	Engines     int         // engines per chip (default ixp.NumEngines)
	Threads     int         // hardware threads per engine (default 4)
	BatchBudget int64       // cycle budget per batch (default 200M)
	Config      *ixp.Config // base machine config (default DefaultConfig sized for the workloads)

	// Heal enables chip re-admission after a wedge (DESIGN.md §15):
	// wedged chips are probed back and rejoin the alive set. nil keeps
	// §13's drain-forever behavior.
	Heal *HealPolicy

	// Idle turns Run into a poll-mode daemon when non-nil: a nil packet
	// from the source means "none ready right now" and Idle decides —
	// true keeps the run alive (heals apply, requeues re-route, partial
	// batches flush, then the source is polled again), false ends the
	// stream. Idle may block briefly to pace the poll.
	Idle func() bool

	// Live, when non-nil, is a ledger Run updates continuously for
	// outside observers (build with NewLive(Chips)); pass a fresh one
	// per Run.
	Live *Live
}

// Normalize fills in the documented defaults for unset fields.
func (o Options) Normalize() Options {
	if o.Chips < 1 {
		o.Chips = 1
	}
	if o.Engines < 1 {
		o.Engines = ixp.NumEngines
	}
	if o.Threads < 1 {
		o.Threads = 4
	}
	if o.BatchBudget <= 0 {
		o.BatchBudget = 200_000_000
	}
	return o
}

// MachineConfig builds one chip's machine config (call on a
// Normalize()d Options).
func (o Options) MachineConfig() ixp.Config {
	var c ixp.Config
	if o.Config != nil {
		c = *o.Config
	} else {
		c = ixp.DefaultConfig()
		c.SRAMWords = 1 << 14
		c.SDRAMWords = 1 << 18
	}
	c.Threads = o.Threads
	return c
}

// Status is a fleet run's honesty marker, mirroring the solver's
// Degraded discipline: StatusDegraded means faults were absorbed
// (wedged chips, dropped packets) and the accounting below says
// exactly how much was lost; it never silently claims a clean run.
type Status int

// Run outcomes.
const (
	// StatusOK: every generated packet was delivered by a healthy chip.
	StatusOK Status = iota
	// StatusDegraded: the run completed but absorbed faults; consult
	// Dropped, Wedges, and the per-chip results.
	StatusDegraded
)

// String renders the status.
func (s Status) String() string {
	if s == StatusOK {
		return "ok"
	}
	return "degraded"
}

// ChipResult is one chip's share of a fleet run.
type ChipResult struct {
	Chip     int       // chip index (== ixp.Chip ID in attributed errors)
	Packets  int64     // packets this chip delivered
	Batches  int64     // simulator batches run
	Dropped  int64     // packets lost to fleet/fifo_drop at this chip's RX
	Requeued int64     // packets handed back for re-sharding at wedge time
	Wedges   int64     // times this chip wedged (heal cycles included)
	Heals    int64     // times this chip was re-admitted (Options.Heal)
	Wedged   bool      // chip was dead (drained, not re-admitted) at run end
	WedgeErr error     // attributed *ixp.RunError from the most recent wedge
	Stats    ixp.Stats // summed over this chip's batches (Cycles = total chip-cycles)
}

// Result is a fleet run's aggregate outcome. The accounting invariant
// is Generated == Delivered + Dropped: a packet is either delivered by
// some chip or dropped with a counted cause, never silently lost —
// Reconcile verifies this plus the per-chip/aggregate Stats agreement.
type Result struct {
	Status     Status
	Generated  int64 // packets pulled from the source
	Delivered  int64 // packets that completed on some chip
	Dropped    int64 // packets lost (fifo_drop faults + unroutable)
	Unroutable int64 // subset of Dropped: no alive chip remained
	Requeued   int64 // packets re-sharded off wedged chips
	Wedges     int64 // chip wedges during the run (heal cycles included)
	Heals      int64 // successful chip re-admissions (Options.Heal)
	Probes     int64 // re-admission probe attempts (Options.Heal)
	Chips      []ChipResult
	Agg        ixp.Stats // field-wise sum of Chips[i].Stats

	// FlowDigests holds one order-independent digest per flow over the
	// delivered packets' observable outputs (result words + written
	// memory); FlowPackets counts deliveries per flow; FlowChips is
	// each flow's final owner. Equal digests across different N prove
	// bit-identical per-flow output.
	FlowDigests map[uint64]uint64
	FlowPackets map[uint64]int64
	FlowChips   map[uint64]int

	Elapsed time.Duration // wall-clock time of the whole run
}

// Reconcile verifies the run's accounting invariants: no packet lost
// without a counted cause, aggregate Stats equal to the per-chip sums,
// and per-flow delivery counts consistent with the totals. A run whose
// Reconcile fails indicates a harness bug, not a workload fault.
func (r *Result) Reconcile() error {
	if r.Generated != r.Delivered+r.Dropped {
		return fmt.Errorf("fleet: %d generated != %d delivered + %d dropped",
			r.Generated, r.Delivered, r.Dropped)
	}
	var sum ixp.Stats
	var packets, drops, requeued, wedges, heals int64
	for i := range r.Chips {
		addStats(&sum, &r.Chips[i].Stats)
		packets += r.Chips[i].Packets
		drops += r.Chips[i].Dropped
		requeued += r.Chips[i].Requeued
		wedges += r.Chips[i].Wedges
		heals += r.Chips[i].Heals
	}
	if !StatsEqual(&sum, &r.Agg) {
		return fmt.Errorf("fleet: aggregate stats %+v != per-chip sum %+v", r.Agg, sum)
	}
	if packets != r.Delivered {
		return fmt.Errorf("fleet: per-chip packets %d != delivered %d", packets, r.Delivered)
	}
	if drops+r.Unroutable != r.Dropped {
		return fmt.Errorf("fleet: per-chip drops %d + unroutable %d != dropped %d",
			drops, r.Unroutable, r.Dropped)
	}
	if requeued != r.Requeued {
		return fmt.Errorf("fleet: per-chip requeues %d != requeued %d", requeued, r.Requeued)
	}
	if wedges != r.Wedges {
		return fmt.Errorf("fleet: per-chip wedges %d != wedges %d", wedges, r.Wedges)
	}
	if heals != r.Heals {
		return fmt.Errorf("fleet: per-chip heals %d != heals %d", heals, r.Heals)
	}
	if r.Heals > r.Probes {
		return fmt.Errorf("fleet: %d heals > %d probes", r.Heals, r.Probes)
	}
	var fp int64
	for _, n := range r.FlowPackets {
		fp += n
	}
	if fp != r.Delivered {
		return fmt.Errorf("fleet: per-flow deliveries %d != delivered %d", fp, r.Delivered)
	}
	return nil
}

// StatsEqual compares the numeric fields of two ixp.Stats (Results are
// not carried by fleet accounting).
func StatsEqual(a, b *ixp.Stats) bool {
	return a.Cycles == b.Cycles && a.Instrs == b.Instrs && a.MemRefs == b.MemRefs &&
		a.Swaps == b.Swaps && a.SRAMRefs == b.SRAMRefs && a.SDRAMRefs == b.SDRAMRefs &&
		a.ScratchRefs == b.ScratchRefs && a.HashRefs == b.HashRefs && a.FIFORefs == b.FIFORefs &&
		a.StallCycles == b.StallCycles && a.PortWaitCycles == b.PortWaitCycles
}

// addStats accumulates src into dst field-wise (Cycles summed, Results
// ignored: outputs are folded into the per-flow digests).
func addStats(dst, src *ixp.Stats) {
	dst.Cycles += src.Cycles
	dst.Instrs += src.Instrs
	dst.MemRefs += src.MemRefs
	dst.Swaps += src.Swaps
	dst.SRAMRefs += src.SRAMRefs
	dst.SDRAMRefs += src.SDRAMRefs
	dst.ScratchRefs += src.ScratchRefs
	dst.HashRefs += src.HashRefs
	dst.FIFORefs += src.FIFORefs
	dst.StallCycles += src.StallCycles
	dst.PortWaitCycles += src.PortWaitCycles
}

// rxDepth is how many batches the dispatcher may queue ahead of each
// chip's worker: enough that a worker finishing a batch finds the next
// one waiting while the dispatcher is busy generating. A 48-batch queue
// measured the same on perfbench simulate, so the shorter one keeps
// MaxInFlight small.
const rxDepth = 8

// MaxInFlight is the most packets a Run with these Options can hold
// between pulling them from the source and resolving them: per chip,
// the batch the dispatcher is filling, rxDepth queued batches and the
// batch the worker has in hand, plus the packet the dispatcher is
// routing. A wedged chip keeps its share until the dispatcher reclaims
// it, and re-routing only moves packets between shares.
func (o Options) MaxInFlight() int64 {
	o = o.Normalize()
	return int64(o.Chips*(rxDepth+2)*o.Engines*o.Threads + 1)
}

// link is one worker incarnation on a chip: the batches the dispatcher
// sends it, dead (closed by the worker when the chip wedges), exit
// (closed when the worker returns) and the batch it held when it
// wedged, which the dispatcher reads only after exit closes.
type link struct {
	rx       chan []*pktgen.Packet
	dead     chan struct{}
	exit     chan struct{}
	handback []*pktgen.Packet
}

func newLink() *link {
	return &link{
		rx:   make(chan []*pktgen.Packet, rxDepth),
		dead: make(chan struct{}),
		exit: make(chan struct{}),
	}
}

// chipCounters is one chip's fleet/chipN/* obs surface.
type chipCounters struct {
	packets, batches, cycles, drops, wedged *obs.Counter
}

// runState carries one Run invocation; chips are goroutines and the
// dispatcher runs inline.
type runState struct {
	w     *Workload
	o     Options
	slots int

	alive  []atomic.Bool
	nAlive atomic.Int64

	// live is the continuously updated ledger (caller's Options.Live or
	// a private one); delivered/dropped/generated all live there.
	live *Live

	chips []ChipResult
	cc    []chipCounters

	// Dispatcher-owned routing state. links[ci] is chip ci's current
	// worker (nil once a wedged one has been reclaimed); pending[ci] is
	// the batch being filled for it.
	links       []*link
	pending     [][]*pktgen.Packet
	generated   int64
	requeued    int64
	unroutable  int64
	heals       int64
	idleFlushed bool
	lastChip    map[uint64]int
	resharded   map[uint64]bool

	// kick wakes the dispatcher's end-of-stream wait: workers post to it
	// after every batch and when they exit.
	kick chan struct{}

	// Re-admission plumbing (nil wedgeEvents/readmits when Options.Heal
	// is unset). done closes when the dispatcher finishes.
	done        chan struct{}
	wedgeEvents chan int
	readmits    chan readmitCmd
	healPolicy  HealPolicy
	hs          *healState

	wg, hwg sync.WaitGroup

	// Per-chip flow tallies, written only by that chip's worker (one
	// incarnation at a time) and summed by Run after the workers exit.
	digests []map[uint64]uint64
	fpkts   []map[uint64]int64
}

// Run shards the source's packets across o.Chips concurrently
// simulated chips and returns the reconciled aggregate. Flow affinity
// is preserved (same flow, same chip) until a chip wedges, at which
// point the wedged chip is drained and only its flows move. Run never
// fails mid-stream: faults degrade the Status and are accounted, and
// the only error return is a malformed workload.
func Run(w *Workload, src Source, opts Options) (*Result, error) {
	if w == nil || w.Prog == nil || w.Stage == nil || w.Collect == nil {
		return nil, fmt.Errorf("fleet: workload needs Prog, Stage, and Collect")
	}
	if src == nil {
		return nil, fmt.Errorf("fleet: nil packet source")
	}
	o := opts.Normalize()
	live := o.Live
	if live == nil {
		live = &Live{}
	}
	if err := live.init(o.Chips); err != nil {
		return nil, err
	}
	s := &runState{
		w: w, o: o,
		slots:     o.Engines * o.Threads,
		alive:     make([]atomic.Bool, o.Chips),
		live:      live,
		chips:     make([]ChipResult, o.Chips),
		cc:        make([]chipCounters, o.Chips),
		links:     make([]*link, o.Chips),
		pending:   make([][]*pktgen.Packet, o.Chips),
		lastChip:  map[uint64]int{},
		resharded: map[uint64]bool{},
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		digests:   make([]map[uint64]uint64, o.Chips),
		fpkts:     make([]map[uint64]int64, o.Chips),
	}
	if o.Heal != nil {
		s.healPolicy = o.Heal.normalize()
		s.hs = newHealState(o.Chips, s.healPolicy.Seed)
		s.wedgeEvents = make(chan int, o.Chips)
		s.readmits = make(chan readmitCmd, o.Chips)
	}
	for i := 0; i < o.Chips; i++ {
		s.links[i] = newLink()
		s.alive[i].Store(true)
		s.chips[i].Chip = i
		s.cc[i] = chipCounters{
			packets: obs.NewCounter(fmt.Sprintf("fleet/chip%d/packets", i)),
			batches: obs.NewCounter(fmt.Sprintf("fleet/chip%d/batches", i)),
			cycles:  obs.NewCounter(fmt.Sprintf("fleet/chip%d/cycles", i)),
			drops:   obs.NewCounter(fmt.Sprintf("fleet/chip%d/drops", i)),
			wedged:  obs.NewCounter(fmt.Sprintf("fleet/chip%d/wedged", i)),
		}
		s.digests[i] = map[uint64]uint64{}
		s.fpkts[i] = map[uint64]int64{}
	}
	s.nAlive.Store(int64(o.Chips))
	gAlive.Set(int64(o.Chips))
	gAvail.Set(1000)

	start := time.Now()
	for i := 0; i < o.Chips; i++ {
		s.wg.Add(1)
		go s.worker(i, nil, s.links[i])
	}
	if s.readmits != nil {
		s.hwg.Add(1)
		go s.healer()
	}
	s.dispatch(src)
	// Shutdown order: stop the heal machinery first (a probe completing
	// after the RX channels closed would re-admit a chip nobody feeds),
	// discard late re-admissions, then join the workers.
	close(s.done)
	s.hwg.Wait()
	if s.readmits != nil {
	discard:
		for {
			select {
			case <-s.readmits:
			default:
				break discard
			}
		}
	}
	s.wg.Wait()

	res := &Result{
		Generated:   s.generated,
		Delivered:   s.live.Delivered.Load(),
		Dropped:     s.live.Dropped.Load(),
		Unroutable:  s.unroutable,
		Requeued:    s.requeued,
		Heals:       s.heals,
		Probes:      s.live.Probes.Load(),
		Chips:       s.chips,
		FlowDigests: map[uint64]uint64{},
		FlowPackets: map[uint64]int64{},
		FlowChips:   s.lastChip,
		Elapsed:     time.Since(start),
	}
	for i := range s.chips {
		addStats(&res.Agg, &s.chips[i].Stats)
		res.Wedges += s.chips[i].Wedges
		for f, d := range s.digests[i] {
			res.FlowDigests[f] += d
		}
		for f, n := range s.fpkts[i] {
			res.FlowPackets[f] += n
		}
	}
	if res.Wedges > 0 || res.Dropped > 0 {
		res.Status = StatusDegraded
	}
	return res, nil
}

// aliveList returns the ascending indices of alive chips.
func (s *runState) aliveList() []int {
	out := make([]int, 0, len(s.alive))
	for i := range s.alive {
		if s.alive[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// route adds one packet to its flow's chip's pending batch and sends
// the batch once it is full. fleet/fifo_drop fires here, so a dropped
// packet never takes a batch slot. Packets that no alive chip can take
// are dropped with accounting. Runs only on the dispatcher goroutine.
func (s *runState) route(p *pktgen.Packet) {
	ci := Shard(p.Flow, s.aliveList())
	if ci < 0 {
		// Full outage: drop honestly rather than park the packet on a
		// heal that may never come (probes can keep failing).
		s.unroutable++
		s.live.Dropped.Add(1)
		cDropped.Inc()
		return
	}
	if prev, ok := s.lastChip[p.Flow]; ok && prev != ci && !s.resharded[p.Flow] {
		s.resharded[p.Flow] = true
		cResharded.Inc()
	}
	s.lastChip[p.Flow] = ci
	if pFIFODrop.Fire() {
		s.chips[ci].Dropped++
		s.cc[ci].drops.Inc()
		s.live.Dropped.Add(1)
		cDropped.Inc()
		return
	}
	if s.pending[ci] == nil {
		s.pending[ci] = make([]*pktgen.Packet, 0, s.slots)
	}
	s.pending[ci] = append(s.pending[ci], p)
	if len(s.pending[ci]) == s.slots {
		s.send(ci)
	}
}

// send hands chip ci its pending batch, blocking while its queue is
// full. If the chip wedges first the batch is re-routed instead.
func (s *runState) send(ci int) {
	b := s.pending[ci]
	if len(b) == 0 {
		return
	}
	s.pending[ci] = nil
	l := s.links[ci]
	select {
	case l.rx <- b:
	case <-l.dead:
		s.requeue(ci, b)
	}
}

// requeue re-routes packets that wedged chip ci never ran and reports
// whether there were any.
func (s *runState) requeue(ci int, b []*pktgen.Packet) bool {
	for _, p := range b {
		s.requeued++
		s.live.Requeued.Add(1)
		cRequeued.Inc()
		s.chips[ci].Requeued++
		s.route(p)
	}
	return len(b) > 0
}

// reclaim re-routes everything wedged chip ci still holds: its pending
// batch and, once its worker has exited, the batch that worker had in
// hand and the batches still queued for it. With wait set it blocks
// until the worker exits; otherwise a worker still exiting keeps its
// packets until the next call. It reports whether any packet moved.
func (s *runState) reclaim(ci int, wait bool) bool {
	b := s.pending[ci]
	s.pending[ci] = nil
	moved := s.requeue(ci, b)
	l := s.links[ci]
	if l == nil {
		return moved
	}
	if wait {
		<-l.exit
	} else {
		select {
		case <-l.exit:
		default:
			return moved
		}
	}
	// The worker has exited and the chip is dead, so the dispatcher is
	// the only party left on l: nothing more is sent to l.rx.
	s.links[ci] = nil
	moved = s.requeue(ci, l.handback) || moved
	for {
		select {
		case b := <-l.rx:
			moved = s.requeue(ci, b) || moved
			continue
		default:
		}
		return moved
	}
}

// reclaimDead reclaims every wedged chip's packets; it reports whether
// any moved. Runs only on the dispatcher goroutine.
func (s *runState) reclaimDead() bool {
	moved := false
	for ci := range s.links {
		if !s.alive[ci].Load() && s.reclaim(ci, false) {
			moved = true
		}
	}
	return moved
}

// flushAlive sends every alive chip its partial batch.
func (s *runState) flushAlive() {
	for ci := range s.links {
		if s.alive[ci].Load() {
			s.send(ci)
		}
	}
}

// poke wakes the dispatcher's end-of-stream wait without blocking.
func (s *runState) poke() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// dispatch generates, routes, and accounts the whole stream, then
// closes the RX channels once every packet is resolved (delivered or
// dropped) so workers exit. With Options.Idle set the stream may
// pause: nil packets trigger a housekeeping tick instead of ending the
// run, until Idle reports the stream is truly over.
func (s *runState) dispatch(src Source) {
	for {
		p := src()
		if p == nil {
			if s.o.Idle != nil && s.idleTick() {
				continue
			}
			break
		}
		s.idleFlushed = false
		s.generated++
		s.live.Generated.Add(1)
		cGenerated.Inc()
		s.route(p)
		if s.processHeals() {
			s.flushAlive()
		}
		if s.generated%1024 == 0 {
			s.reclaimDead()
		}
	}
	s.flushAlive()
	for s.live.Delivered.Load()+s.live.Dropped.Load() < s.generated {
		healed := false
		select {
		case <-s.kick:
		case cmd := <-s.readmits:
			healed = s.readmit(cmd)
		}
		healed = s.processHeals() || healed
		if s.reclaimDead() || healed {
			s.flushAlive()
		}
	}
	for _, l := range s.links {
		if l != nil {
			close(l.rx)
		}
	}
}

// idleTick runs dispatcher housekeeping while a daemon source has no
// packet ready: apply pending re-admissions, re-route reclaimed work,
// and flush partial batches so admitted packets never wait on future
// arrivals. Returns Idle()'s verdict — false means end of stream.
func (s *runState) idleTick() bool {
	healed := s.processHeals()
	moved := s.reclaimDead()
	if healed || moved || !s.idleFlushed {
		s.flushAlive()
		s.idleFlushed = true
	}
	return s.o.Idle()
}

// worker runs one incarnation of chip ci: simulate each batch the
// dispatcher sends until the channel closes or the chip wedges. chip
// is non-nil when a probe already built it (heal.go).
func (s *runState) worker(ci int, chip *ixp.Chip, l *link) {
	defer s.wg.Done()
	defer s.poke()
	defer close(l.exit)
	if chip == nil {
		chip = ixp.NewChip(s.o.MachineConfig(), s.o.Engines)
		chip.SetID(ci)
		if s.w.Init != nil {
			s.w.Init(chip)
		}
	}
	for batch := range l.rx {
		if !s.runBatch(ci, chip, l, batch) {
			return
		}
		s.poke()
	}
}

// runBatch simulates one batch on the chip and folds its outputs into
// the chip's flow tallies. It returns false when the chip wedged
// (injected or a real simulator failure): the batch has been handed
// back for re-sharding and the worker must exit.
func (s *runState) runBatch(ci int, chip *ixp.Chip, l *link, batch []*pktgen.Packet) bool {
	if pChipWedge.Fire() {
		s.wedge(ci, l, batch, nil)
		return false
	}
	restore := func() {}
	if v, fired := pSRAMStall.Value(); fired {
		extra := int(v)
		if extra <= 0 {
			extra = 64
		}
		for _, e := range chip.Engines {
			e.Cfg.SRAMLatency += extra
		}
		restore = func() {
			for _, e := range chip.Engines {
				e.Cfg.SRAMLatency -= extra
			}
		}
	}
	st, err := s.w.RunBatch(chip, batch, s.o.BatchBudget)
	restore()
	if err != nil {
		s.wedge(ci, l, batch, err)
		return false
	}
	// Slots are staged contiguously in engine-major order, which is
	// exactly the order Chip.Run collects halt results in.
	if len(st.Results) != len(batch) {
		s.wedge(ci, l, batch, fmt.Errorf("%d results for %d staged packets", len(st.Results), len(batch)))
		return false
	}
	cr := &s.chips[ci]
	addStats(&cr.Stats, st)
	cr.Batches++
	cr.Packets += int64(len(batch))
	s.live.ChipBatches[ci].Add(1)
	s.cc[ci].batches.Inc()
	s.cc[ci].packets.Add(int64(len(batch)))
	s.cc[ci].cycles.Add(st.Cycles)
	cBatches.Inc()
	cCycles.Add(st.Cycles)
	// The per-flow fold is an order-independent sum, so digests compare
	// equal across any N and any re-sharding or heal history.
	digests, fpkts := s.digests[ci], s.fpkts[ci]
	for i, p := range batch {
		d := s.w.Collect(chip, i, p, st.Results[i])
		digests[p.Flow] += mix64(d ^ mix64(uint64(p.Seq)+0x51ed270b))
		fpkts[p.Flow]++
	}
	s.live.Delivered.Add(int64(len(batch)))
	cDelivered.Add(int64(len(batch)))
	return true
}

// wedge marks the chip dead, leaves the batch it was running for the
// dispatcher to re-shard (with whatever is still queued for the chip),
// and — when healing is on — posts the wedge event for the healer.
func (s *runState) wedge(ci int, l *link, batch []*pktgen.Packet, err error) {
	s.alive[ci].Store(false)
	n := s.nAlive.Add(-1)
	gAlive.Set(n)
	s.live.Alive.Store(n)
	gAvail.Set(1000 * n / int64(s.o.Chips))
	cr := &s.chips[ci]
	cr.Wedged = true
	cr.Wedges++
	cr.WedgeErr = err
	s.live.Wedges.Add(1)
	s.cc[ci].wedged.Inc()
	cWedges.Inc()
	l.handback = batch
	close(l.dead)
	if s.wedgeEvents != nil {
		// Capacity is Chips and a chip cannot wedge again before its
		// re-admission consumed the prior event, so this never drops.
		select {
		case s.wedgeEvents <- ci:
		default:
		}
	}
}
