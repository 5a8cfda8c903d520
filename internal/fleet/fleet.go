package fleet

import (
	"fmt"
	"runtime"
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
// at the RX handoff, sram_stall slows a chip's SRAM port for one batch
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
// ixp.NumEngines engines with 4 threads each, 1024-slot rings, a
// 200M-cycle batch budget, and the standard fleet machine config.
type Options struct {
	Chips       int         // simulated IXP1200 chips (N)
	Engines     int         // engines per chip (default ixp.NumEngines)
	Threads     int         // hardware threads per engine (default 4)
	RingCap     int         // RX/TX ring capacity (default 1024)
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
	if o.RingCap < 2*o.Engines*o.Threads {
		if o.RingCap < 1024 {
			o.RingCap = 1024
		}
		if o.RingCap < 2*o.Engines*o.Threads {
			o.RingCap = 2 * o.Engines * o.Threads
		}
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
// ignored: outputs travel through the TX rings as digests).
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

// flushPacket tells a worker to run whatever partial batch it holds —
// pushed by the dispatcher at end of stream and after re-sharding.
var flushPacket = &pktgen.Packet{}

// txRec is one delivered packet's record on the TX ring.
type txRec struct {
	flow   uint64
	seq    int64
	digest uint64
}

// chipCounters is one chip's fleet/chipN/* obs surface.
type chipCounters struct {
	packets, batches, cycles, drops, wedged *obs.Counter
}

// runState carries one Run invocation; chips are goroutines, the
// dispatcher runs inline, and a separate aggregator folds TX records.
type runState struct {
	w *Workload
	o Options

	// rx/tx are the dispatcher's view of the rings; workers hold their
	// own ring pointers, so the dispatcher may swap a dead chip's slots
	// on re-admission (heal.go) without racing anyone.
	rx      []*ring[*pktgen.Packet]
	tx      []*ring[txRec]
	alive   []atomic.Bool
	exited  []atomic.Bool
	nAlive  atomic.Int64
	requeue chan *pktgen.Packet

	// live is the continuously updated ledger (caller's Options.Live or
	// a private one); delivered/dropped/generated all live there.
	live *Live

	chips []ChipResult
	cc    []chipCounters

	// Dispatcher-owned routing state.
	generated   int64
	requeued    int64
	unroutable  int64
	heals       int64
	idleFlushed bool
	lastChip    map[uint64]int
	resharded   map[uint64]bool

	// Re-admission plumbing (nil wedgeEvents/readmits when Options.Heal
	// is unset). done closes when the dispatcher finishes; newTX carries
	// TX-ring swaps to the aggregator.
	done        chan struct{}
	wedgeEvents chan int
	readmits    chan readmitCmd
	newTX       chan txSwap
	healPolicy  HealPolicy
	hs          *healState

	wg, awg, hwg sync.WaitGroup

	// Aggregator-owned per-flow accounting.
	digests map[uint64]uint64
	fpkts   map[uint64]int64
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
	slots := o.Engines * o.Threads
	s := &runState{
		w: w, o: o,
		rx:        make([]*ring[*pktgen.Packet], o.Chips),
		tx:        make([]*ring[txRec], o.Chips),
		alive:     make([]atomic.Bool, o.Chips),
		exited:    make([]atomic.Bool, o.Chips),
		requeue:   make(chan *pktgen.Packet, o.Chips*(o.RingCap+slots)+64),
		live:      live,
		chips:     make([]ChipResult, o.Chips),
		cc:        make([]chipCounters, o.Chips),
		lastChip:  map[uint64]int{},
		resharded: map[uint64]bool{},
		done:      make(chan struct{}),
		newTX:     make(chan txSwap, o.Chips),
		digests:   map[uint64]uint64{},
		fpkts:     map[uint64]int64{},
	}
	if o.Heal != nil {
		s.healPolicy = o.Heal.normalize()
		s.hs = newHealState(o.Chips, s.healPolicy.Seed)
		s.wedgeEvents = make(chan int, o.Chips)
		s.readmits = make(chan readmitCmd, o.Chips)
	}
	for i := 0; i < o.Chips; i++ {
		s.rx[i] = newRing[*pktgen.Packet](o.RingCap)
		s.tx[i] = newRing[txRec](o.RingCap)
		s.alive[i].Store(true)
		s.chips[i].Chip = i
		s.cc[i] = chipCounters{
			packets: obs.NewCounter(fmt.Sprintf("fleet/chip%d/packets", i)),
			batches: obs.NewCounter(fmt.Sprintf("fleet/chip%d/batches", i)),
			cycles:  obs.NewCounter(fmt.Sprintf("fleet/chip%d/cycles", i)),
			drops:   obs.NewCounter(fmt.Sprintf("fleet/chip%d/drops", i)),
			wedged:  obs.NewCounter(fmt.Sprintf("fleet/chip%d/wedged", i)),
		}
	}
	s.nAlive.Store(int64(o.Chips))
	gAlive.Set(int64(o.Chips))
	gAvail.Set(1000)

	start := time.Now()
	s.awg.Add(1)
	go s.aggregator()
	for i := 0; i < o.Chips; i++ {
		s.wg.Add(1)
		go s.worker(i, nil, s.rx[i], s.tx[i])
	}
	if s.readmits != nil {
		s.hwg.Add(1)
		go s.healer()
	}
	s.dispatch(src)
	// Shutdown order: stop the heal machinery first (a probe completing
	// after the RX rings closed would re-admit a chip nobody feeds),
	// discard late re-admissions, then release the aggregator's swap
	// stream and join everyone.
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
	close(s.newTX)
	s.wg.Wait()
	s.awg.Wait()

	res := &Result{
		Generated:   s.generated,
		Delivered:   s.live.Delivered.Load(),
		Dropped:     s.live.Dropped.Load(),
		Unroutable:  s.unroutable,
		Requeued:    s.requeued,
		Heals:       s.heals,
		Probes:      s.live.Probes.Load(),
		Chips:       s.chips,
		FlowDigests: s.digests,
		FlowPackets: s.fpkts,
		FlowChips:   s.lastChip,
		Elapsed:     time.Since(start),
	}
	for i := range s.chips {
		addStats(&res.Agg, &s.chips[i].Stats)
		res.Wedges += s.chips[i].Wedges
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

// route delivers one packet to its flow's chip, re-sharding off dead
// chips. Packets that no alive chip can take are dropped with
// accounting. Runs only on the dispatcher goroutine.
func (s *runState) route(p *pktgen.Packet) {
	for {
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
		if !s.rx[ci].push(p, func() bool { return !s.alive[ci].Load() }) {
			continue // target died while we waited; re-shard
		}
		// If the target died between our push and its final drain the
		// packet sits in a dead ring; the dispatcher wait loop drains
		// dead rings once their workers have exited, so nothing is lost.
		return
	}
}

// drainRequeue routes everything currently on the requeue channel and
// in dead chips' abandoned RX rings; it reports whether any packet
// moved. Runs only on the dispatcher goroutine.
func (s *runState) drainRequeue() bool {
	moved := false
	for {
		select {
		case p := <-s.requeue:
			s.requeued++
			s.live.Requeued.Add(1)
			cRequeued.Inc()
			s.route(p)
			moved = true
			continue
		default:
		}
		break
	}
	// A dead chip's ring may hold packets that raced its worker's own
	// drain; the worker has exited (exited[ci]), so the dispatcher is
	// the only consumer left and popping is still single-consumer.
	for ci := range s.rx {
		if s.alive[ci].Load() || !s.exited[ci].Load() {
			continue
		}
		for {
			p, ok, _ := s.rx[ci].tryPop()
			if !ok {
				break
			}
			if p == flushPacket {
				continue
			}
			s.requeued++
			s.live.Requeued.Add(1)
			cRequeued.Inc()
			s.chips[ci].Requeued++
			s.route(p)
			moved = true
		}
	}
	return moved
}

// flushAlive tells every alive chip to run its partial batch.
func (s *runState) flushAlive() {
	for ci := range s.rx {
		if s.alive[ci].Load() {
			s.rx[ci].push(flushPacket, func() bool { return !s.alive[ci].Load() })
		}
	}
}

// dispatch generates, routes, and accounts the whole stream, then
// closes the RX rings once every packet is resolved (delivered or
// dropped) so workers flush and exit. With Options.Idle set the stream
// may pause: nil packets trigger a housekeeping tick instead of ending
// the run, until Idle reports the stream is truly over.
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
			s.drainRequeue()
		}
	}
	s.flushAlive()
	for s.live.Delivered.Load()+s.live.Dropped.Load() < s.generated {
		healed := s.processHeals()
		if s.drainRequeue() || healed {
			s.flushAlive()
		}
		runtime.Gosched()
	}
	for ci := range s.rx {
		s.rx[ci].close()
	}
}

// idleTick runs dispatcher housekeeping while a daemon source has no
// packet ready: apply pending re-admissions, re-route requeued work,
// and flush partial batches so admitted packets never wait on future
// arrivals. Returns Idle()'s verdict — false means end of stream.
func (s *runState) idleTick() bool {
	healed := s.processHeals()
	moved := s.drainRequeue()
	if healed || moved || !s.idleFlushed {
		s.flushAlive()
		s.idleFlushed = true
	}
	return s.o.Idle()
}

// worker runs one chip: collect full batches off the RX ring, simulate
// them, push per-packet output records to the TX ring. A flush marker
// (or ring close) runs the partial batch; a wedge drains and exits.
// The rings arrive as parameters (not via s.rx/s.tx) because the
// dispatcher replaces a dead chip's slots on re-admission; chip is
// non-nil when a probe already built it (heal.go).
func (s *runState) worker(ci int, chip *ixp.Chip, rx *ring[*pktgen.Packet], tx *ring[txRec]) {
	defer s.wg.Done()
	defer s.exited[ci].Store(true)
	defer tx.close()
	if chip == nil {
		chip = ixp.NewChip(s.o.MachineConfig(), s.o.Engines)
		chip.SetID(ci)
		if s.w.Init != nil {
			s.w.Init(chip)
		}
	}
	slots := s.o.Engines * s.o.Threads
	batch := make([]*pktgen.Packet, 0, slots)
	cr := &s.chips[ci]
	spins := 0
	for {
		p, ok, closed := rx.tryPop()
		if !ok {
			if closed {
				if len(batch) > 0 && !s.runBatch(ci, chip, cr, batch, rx, tx) {
					return
				}
				return
			}
			// Back off once the ring stays empty: a daemon fleet idles
			// between bursts and must not spin whole cores.
			if spins++; spins > 256 {
				time.Sleep(50 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		spins = 0
		if p == flushPacket {
			if len(batch) > 0 {
				if !s.runBatch(ci, chip, cr, batch, rx, tx) {
					return
				}
				batch = batch[:0]
			}
			continue
		}
		if pFIFODrop.Fire() {
			cr.Dropped++
			s.cc[ci].drops.Inc()
			s.live.Dropped.Add(1)
			cDropped.Inc()
			continue
		}
		batch = append(batch, p)
		if len(batch) == slots {
			if !s.runBatch(ci, chip, cr, batch, rx, tx) {
				return
			}
			batch = batch[:0]
		}
	}
}

// runBatch simulates one batch on the chip. It returns false when the
// chip wedged (injected or a real simulator failure): the batch and
// the chip's remaining queue have been handed back for re-sharding and
// the worker must exit.
func (s *runState) runBatch(ci int, chip *ixp.Chip, cr *ChipResult, batch []*pktgen.Packet, rx *ring[*pktgen.Packet], tx *ring[txRec]) bool {
	if pChipWedge.Fire() {
		s.wedge(ci, cr, batch, rx, nil)
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
		s.wedge(ci, cr, batch, rx, err)
		return false
	}
	// Slots are staged contiguously in engine-major order, which is
	// exactly the order Chip.Run collects halt results in.
	if len(st.Results) != len(batch) {
		s.wedge(ci, cr, batch, rx, fmt.Errorf("%d results for %d staged packets", len(st.Results), len(batch)))
		return false
	}
	addStats(&cr.Stats, st)
	cr.Batches++
	cr.Packets += int64(len(batch))
	s.live.ChipBatches[ci].Add(1)
	s.cc[ci].batches.Inc()
	s.cc[ci].packets.Add(int64(len(batch)))
	s.cc[ci].cycles.Add(st.Cycles)
	cBatches.Inc()
	cCycles.Add(st.Cycles)
	for i, p := range batch {
		d := s.w.Collect(chip, i, p, st.Results[i])
		tx.push(txRec{flow: p.Flow, seq: p.Seq, digest: d}, nil)
		s.live.Delivered.Add(1)
		cDelivered.Inc()
	}
	return true
}

// wedge marks the chip dead, hands its unprocessed work (the in-flight
// batch plus whatever its RX ring holds) back to the dispatcher for
// re-sharding, and — when healing is on — posts the wedge event for the
// healer. The requeue channel is sized for the worst case, so this
// never blocks.
func (s *runState) wedge(ci int, cr *ChipResult, batch []*pktgen.Packet, rx *ring[*pktgen.Packet], err error) {
	s.alive[ci].Store(false)
	n := s.nAlive.Add(-1)
	gAlive.Set(n)
	s.live.Alive.Store(n)
	gAvail.Set(1000 * n / int64(s.o.Chips))
	cr.Wedged = true
	cr.Wedges++
	cr.WedgeErr = err
	s.live.Wedges.Add(1)
	s.cc[ci].wedged.Inc()
	cWedges.Inc()
	for _, p := range batch {
		cr.Requeued++
		s.requeue <- p
	}
	for {
		p, ok, _ := rx.tryPop()
		if !ok {
			break
		}
		if p == flushPacket {
			continue
		}
		cr.Requeued++
		s.requeue <- p
	}
	if s.wedgeEvents != nil {
		// Capacity is Chips and a chip cannot wedge again before its
		// re-admission consumed the prior event, so this never drops.
		select {
		case s.wedgeEvents <- ci:
		default:
		}
	}
}

// aggregator folds every chip's TX records into the per-flow digests.
// The combine is an order-independent sum, so digests compare equal
// across any N and any re-sharding/heal history. It keeps a private
// copy of the ring set and absorbs replacement rings from newTX as
// chips are re-admitted, draining each retired ring to completion
// first so no delivered record is lost.
func (s *runState) aggregator() {
	defer s.awg.Done()
	rings := append([]*ring[txRec](nil), s.tx...)
	done := make([]bool, len(rings))
	open := len(rings)
	swapsOpen := true
	fold := func(rec txRec) {
		s.digests[rec.flow] += mix64(rec.digest ^ mix64(uint64(rec.seq)+0x51ed270b))
		s.fpkts[rec.flow]++
	}
	absorb := func() bool {
		moved := false
		for swapsOpen {
			select {
			case sw, ok := <-s.newTX:
				if !ok {
					swapsOpen = false
					continue
				}
				// The retired ring is closed and fully pushed — the swap
				// is sent only after the dispatcher saw the worker exit,
				// and the worker closes its TX ring before that flag.
				for {
					rec, ok2, closed := rings[sw.ci].tryPop()
					if ok2 {
						fold(rec)
						continue
					}
					if closed {
						break
					}
					runtime.Gosched()
				}
				if done[sw.ci] {
					done[sw.ci] = false
					open++
				}
				rings[sw.ci] = sw.r
				moved = true
			default:
				return moved
			}
		}
		return moved
	}
	spins := 0
	for open > 0 || swapsOpen {
		progress := absorb()
		for ci, r := range rings {
			if done[ci] {
				continue
			}
			for {
				rec, ok, closed := r.tryPop()
				if ok {
					progress = true
					fold(rec)
					continue
				}
				if closed {
					done[ci] = true
					open--
				}
				break
			}
		}
		if progress {
			spins = 0
		} else if spins++; spins > 256 {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}
