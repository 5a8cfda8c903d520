package fleet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/pktgen"
)

// sumProgram is a cheap packet kernel so the fleet tests don't pay an
// ILP compile per run: read the staged 2-word packet, combine with an
// argument, write the result back.
const sumProgram = `
fun main(base: word, x: word) -> word {
  let (a0, a1) = sdram[2](base);
  let (t0, t1) = sram[2](base);
  let s = a0 + a1 + x + t0 + t1;
  sdram(base) <- (s, a0 ^ a1);
  s
}`

var testWL = struct {
	sync.Once
	w   *Workload
	err error
}{}

// testWorkload compiles sumProgram once and adapts it: each slot
// stages packet words 0..1 at an even per-slot base and digests the
// written words plus the halt result.
func testWorkload(t *testing.T) *Workload {
	t.Helper()
	testWL.Do(func() {
		comp, err := nova.Compile("sum.nova", sumProgram, nova.DefaultOptions())
		if err != nil {
			testWL.err = err
			return
		}
		regs, err := comp.EntryRegs()
		if err != nil {
			testWL.err = err
			return
		}
		testWL.w = &Workload{
			Name:      "sum2",
			Kind:      pktgen.KindIPv6,
			Prog:      comp.Asm,
			EntryRegs: regs,
			Stage: func(chip *ixp.Chip, slot int, p *pktgen.Packet) []uint32 {
				base := uint32(0x100 + slot*0x10)
				copy(chip.SDRAM()[base:], p.Words[:2])
				return []uint32{base, p.Words[2]}
			},
			Collect: func(chip *ixp.Chip, slot int, p *pktgen.Packet, results []uint32) uint64 {
				base := 0x100 + slot*0x10
				return Digest(Digest(DigestSeed, chip.SDRAM()[base:base+2]), results)
			},
		}
	})
	if testWL.err != nil {
		t.Fatal(testWL.err)
	}
	return testWL.w
}

func testOptions(chips int) Options {
	return Options{Chips: chips, Engines: 2, Threads: 2}
}

func stream(total int64) Source {
	return pktgen.NewFlowGen(pktgen.KindIPv6, 11, 8, 8).Take(total)
}

func mustRun(t *testing.T, w *Workload, src Source, o Options) *Result {
	t.Helper()
	res, err := Run(w, src, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterministicSharding: for any N, the same seed and flow set
// give identical per-chip assignment, per-chip Stats, and per-flow
// digests across runs.
func TestDeterministicSharding(t *testing.T) {
	w := testWorkload(t)
	for chips := 1; chips <= 4; chips++ {
		a := mustRun(t, w, stream(400), testOptions(chips))
		b := mustRun(t, w, stream(400), testOptions(chips))
		if a.Status != StatusOK || a.Delivered != 400 {
			t.Fatalf("N=%d: status %v delivered %d", chips, a.Status, a.Delivered)
		}
		for f, ca := range a.FlowChips {
			if cb, ok := b.FlowChips[f]; !ok || ca != cb {
				t.Fatalf("N=%d: flow %d on chip %d vs %d across runs", chips, f, ca, cb)
			}
		}
		for i := range a.Chips {
			if a.Chips[i].Packets != b.Chips[i].Packets {
				t.Fatalf("N=%d chip %d: %d vs %d packets", chips, i, a.Chips[i].Packets, b.Chips[i].Packets)
			}
			if !StatsEqual(&a.Chips[i].Stats, &b.Chips[i].Stats) {
				t.Fatalf("N=%d chip %d: stats differ across identical runs", chips, i)
			}
		}
		for f, da := range a.FlowDigests {
			if b.FlowDigests[f] != da {
				t.Fatalf("N=%d: flow %d digest differs across runs", chips, f)
			}
		}
	}
}

// TestFleetMatchesSoloPartition: an N-chip fleet equals the sum of
// solo-chip runs over the same flow partition — per-chip Stats are
// bit-identical and the per-flow output digests agree.
func TestFleetMatchesSoloPartition(t *testing.T) {
	w := testWorkload(t)
	const chips = 3
	fleetRes := mustRun(t, w, stream(300), testOptions(chips))

	alive := []int{0, 1, 2}
	for ci := 0; ci < chips; ci++ {
		part := func() Source {
			inner := stream(300)
			return func() *pktgen.Packet {
				for {
					p := inner()
					if p == nil {
						return nil
					}
					if Shard(p.Flow, alive) == ci {
						return p
					}
				}
			}
		}()
		solo := mustRun(t, w, part, testOptions(1))
		if solo.Delivered != fleetRes.Chips[ci].Packets {
			t.Fatalf("chip %d: solo delivered %d, fleet %d", ci, solo.Delivered, fleetRes.Chips[ci].Packets)
		}
		if !StatsEqual(&solo.Agg, &fleetRes.Chips[ci].Stats) {
			t.Fatalf("chip %d: solo stats %+v != fleet chip stats %+v", ci, solo.Agg, fleetRes.Chips[ci].Stats)
		}
		for f, d := range solo.FlowDigests {
			if fleetRes.FlowDigests[f] != d {
				t.Fatalf("chip %d: flow %d digest differs solo vs fleet", ci, f)
			}
		}
	}
}

// TestNATTwoChipsMatchSolo runs the paper's NAT workload (a real ILP
// compile) through a 1-chip and a 2-chip fleet on one packet stream:
// both must reconcile, deliver every packet, and produce bit-identical
// per-flow output digests.
func TestNATTwoChipsMatchSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP compile of the NAT workload")
	}
	const packets, flows = 10_000, 64
	w, err := Compile("nat", &mip.Options{Time: 4 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var digests [2]map[uint64]uint64
	for i, chips := range []int{1, 2} {
		res := mustRun(t, w, pktgen.NewFlowGen(w.Kind, 1, flows, 64).Take(packets), Options{Chips: chips})
		if res.Status != StatusOK || res.Delivered != packets {
			t.Fatalf("N=%d: status %v delivered %d of %d", chips, res.Status, res.Delivered, packets)
		}
		if len(res.FlowDigests) != flows {
			t.Fatalf("N=%d: %d flow digests, want %d", chips, len(res.FlowDigests), flows)
		}
		digests[i] = res.FlowDigests
	}
	for f, d := range digests[0] {
		if digests[1][f] != d {
			t.Fatalf("flow %d: 1-chip digest %#x, 2-chip %#x", f, d, digests[1][f])
		}
	}
}

// TestWedgeDegraded: an injected chip wedge yields StatusDegraded with
// zero lost packets — everything the dead chip held is re-sharded and
// delivered, and the accounting reconciles.
func TestWedgeDegraded(t *testing.T) {
	plan, err := fault.Parse("fleet/chip_wedge@3")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	w := testWorkload(t)
	res := mustRun(t, w, stream(400), testOptions(3))
	if res.Status != StatusDegraded {
		t.Fatalf("status %v, want degraded", res.Status)
	}
	if res.Wedges != 1 {
		t.Fatalf("wedges %d, want 1", res.Wedges)
	}
	if res.Dropped != 0 || res.Delivered != res.Generated {
		t.Fatalf("lost packets: generated %d delivered %d dropped %d",
			res.Generated, res.Delivered, res.Dropped)
	}
	if res.Requeued == 0 {
		t.Fatal("wedge re-sharded nothing — the fault did not exercise the drain path")
	}
	// Every flow delivered its full 50 packets (400 packets over 8
	// flows), wedged chip or not.
	for f, n := range res.FlowPackets {
		if n != 50 {
			t.Fatalf("flow %d delivered %d packets, want 50", f, n)
		}
	}
}

// TestFifoDropAccounting: injected FIFO drops are counted, never
// silently lost, and — because the drop fires at the dispatcher's
// hand-off, in packet order — two runs of one seeded plan drop the same
// packets: identical per-chip drops, batches, Stats and digests.
func TestFifoDropAccounting(t *testing.T) {
	plan, err := fault.Parse("fleet/fifo_drop@1:5")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	w := testWorkload(t)
	res := mustRun(t, w, stream(200), testOptions(2))
	if res.Dropped != 5 {
		t.Fatalf("dropped %d, want 5", res.Dropped)
	}
	if res.Delivered != res.Generated-5 {
		t.Fatalf("delivered %d of %d with 5 drops", res.Delivered, res.Generated)
	}
	if res.Status != StatusDegraded {
		t.Fatalf("status %v, want degraded", res.Status)
	}

	var runs [2]*Result
	for i := range runs {
		plan, err := fault.Parse("fleet/fifo_drop~0.05, seed=3")
		if err != nil {
			t.Fatal(err)
		}
		fault.Install(plan)
		runs[i] = mustRun(t, w, stream(400), testOptions(2))
	}
	a, b := runs[0], runs[1]
	if a.Dropped == 0 {
		t.Fatal("seeded plan dropped nothing")
	}
	for i := range a.Chips {
		ca, cb := &a.Chips[i], &b.Chips[i]
		if ca.Dropped != cb.Dropped || ca.Batches != cb.Batches || !StatsEqual(&ca.Stats, &cb.Stats) {
			t.Fatalf("chip %d: dropped %d vs %d, batches %d vs %d, stats equal %v across identical runs",
				i, ca.Dropped, cb.Dropped, ca.Batches, cb.Batches, StatsEqual(&ca.Stats, &cb.Stats))
		}
	}
	if len(a.FlowDigests) != len(b.FlowDigests) {
		t.Fatalf("%d vs %d flow digests across identical runs", len(a.FlowDigests), len(b.FlowDigests))
	}
	for f, d := range a.FlowDigests {
		if b.FlowDigests[f] != d {
			t.Fatalf("flow %d digest differs across identical runs", f)
		}
	}
}

// TestSRAMStallDegradesThroughput: a stalled SRAM port slows the chip
// (more cycles for the same packets) but loses nothing.
func TestSRAMStallDegradesThroughput(t *testing.T) {
	w := testWorkload(t)
	clean := mustRun(t, w, stream(200), testOptions(1))
	plan, err := fault.Parse("fleet/sram_stall@1:*=200")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	defer fault.Reset()
	slow := mustRun(t, w, stream(200), testOptions(1))
	if slow.Delivered != clean.Delivered {
		t.Fatalf("stall lost packets: %d vs %d", slow.Delivered, clean.Delivered)
	}
	if slow.Agg.Cycles <= clean.Agg.Cycles {
		t.Fatalf("stalled run not slower: %d vs %d cycles", slow.Agg.Cycles, clean.Agg.Cycles)
	}
	for f, d := range clean.FlowDigests {
		if slow.FlowDigests[f] != d {
			t.Fatalf("stall changed flow %d output", f)
		}
	}
}

// TestWedgeErrAttribution: a genuine simulator failure wedges the chip
// with an attributed *ixp.RunError naming the chip, and even when the
// poison packet kills every chip the accounting still reconciles.
func TestWedgeErrAttribution(t *testing.T) {
	w := testWorkload(t)
	poison := *w
	poison.Stage = func(chip *ixp.Chip, slot int, p *pktgen.Packet) []uint32 {
		base := uint32(0x100 + slot*0x10)
		copy(chip.SDRAM()[base:], p.Words[:2])
		if p.Flow == 0 && p.Seq == 3 {
			// An odd SDRAM address: unaligned reads fail the engine.
			return []uint32{uint32(1 << 19), p.Words[2]}
		}
		return []uint32{base, p.Words[2]}
	}
	res, err := Run(&poison, stream(300), testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDegraded || res.Wedges == 0 {
		t.Fatalf("poison packet did not degrade: status %v wedges %d", res.Status, res.Wedges)
	}
	for i := range res.Chips {
		if !res.Chips[i].Wedged || res.Chips[i].WedgeErr == nil {
			continue
		}
		var re *ixp.RunError
		if !errors.As(res.Chips[i].WedgeErr, &re) {
			t.Fatalf("chip %d wedge error %v is not attributed", i, res.Chips[i].WedgeErr)
		}
		if re.Chip != res.Chips[i].Chip {
			t.Fatalf("chip %d wedge attributed to chip %d", res.Chips[i].Chip, re.Chip)
		}
	}
}
