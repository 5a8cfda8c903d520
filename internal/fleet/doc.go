// Package fleet simulates a production deployment of compiled Nova
// workloads: N IXP1200 chips (internal/ixp.Chip) running concurrently,
// fed by a dispatcher that hash-shards packet flows across them
// (DESIGN.md §13).
//
// The moving parts: a single dispatcher goroutine pulls packets from a
// Source, picks each flow's chip by rendezvous hashing (same flow →
// same chip, always), fills one pending batch per chip, and sends each
// batch whole over a Go channel to that chip's worker goroutine — when
// the batch is full, or partial on a flush. A worker runs each batch
// through the cycle-level simulation and folds the per-packet output
// digests into its chip's order-independent per-flow digests, which
// Run sums once the workers exit. Per-chip ixp.Stats roll up into
// fleet totals, mirrored on the always-on fleet/* obs counters
// (per-chip under fleet/chipN/*).
//
// Faults are first-class: the fleet/fifo_drop, fleet/sram_stall, and
// fleet/chip_wedge injection points (internal/fault) lose a packet,
// slow a chip's SRAM port for a batch, or kill a chip outright. A
// wedged chip is drained — its in-flight batch and queued packets go
// back to the dispatcher — and only its flows re-shard to the
// survivors; the run completes with StatusDegraded and accounting
// that satisfies Generated == Delivered + Dropped (Result.Reconcile
// verifies every invariant).
//
// # Usage
//
//	w, err := fleet.Compile("nat", nil)           // aes | kasumi | nat
//	g := pktgen.NewFlowGen(w.Kind, 1, 256, 64)    // 256 flows, 64 B
//	res, err := fleet.Run(w, g.Take(1_000_000), fleet.Options{Chips: 4})
//	if err == nil && res.Reconcile() == nil {
//		fmt.Println(res.Status, res.Delivered, res.Agg.Cycles)
//	}
//
// Determinism: with no faults installed, a given (workload, stream,
// Options) triple yields bit-identical per-chip assignments, Stats,
// and per-flow digests on every run — and the per-flow digests match
// any other N, which is how the tests prove a fleet run equals the
// sum of solo-chip runs over the same flow partition.
package fleet
