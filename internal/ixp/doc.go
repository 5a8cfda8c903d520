// Package ixp is a cycle-level simulator of an IXP1200 micro-engine as
// seen by compiled Nova programs (Figure 1 of the paper): per-thread
// A/B general-purpose banks, SRAM-side (L/S) and SDRAM-side (LD/SD)
// transfer banks, shared scratch/SRAM/SDRAM memory, the hash unit, and
// hardware multi-threading that swaps contexts to hide memory latency.
//
// The clock and latency parameters approximate the 233 MHz IXP1200 the
// paper measures (§11): what the simulator preserves is the relative
// cost structure — single-cycle ALU operations against tens-of-cycles
// memory references — which determines the shape of the throughput
// results.
//
// # Usage
//
// A single engine runs a compiled program on its hardware threads:
//
//	m := ixp.New(ixp.DefaultConfig())
//	m.Load(comp.Asm)                               // *asm.Program
//	regs, _ := comp.EntryRegs()
//	m.SetArgs(0, regs, []uint32{addr, n})          // start thread 0
//	st, err := m.Run(10_000_000)                   // cycle budget
//	if err == nil {
//		_ = st.Cycles                          // plus Instrs, MemRefs,
//	}                                              // SRAMRefs, StallCycles, ...
//
// Load decodes the program once into flat op records: the operation
// kind, register references as indices into one flat per-thread
// register file (bank*16 + index, checked against the file at decode),
// immediates, transfer-register ranges, branch targets, and whether
// the op touches chip-shared state. An instruction that names a
// register outside the file, or a branch target outside the program,
// decodes to an op that fails the run with a *RunError when it is
// reached, as does running past the last instruction. The decoded form holds nothing from
// Config: latencies, BranchPenalty and SwapCost are read when an op
// runs, so a Config changed between runs takes effect on reload.
// Reloading the same *asm.Program reuses the decoded form. Each thread
// carries one readiness field, the cycle it can next issue at (never,
// for a thread halted or not started), so the scheduler's runnable
// test and idle skip are one compare and one min.
//
// NewChip builds several engines sharing one memory system and its
// port-arbitration state, and Chip.Load hands them one decoded
// program; Chip.Run interleaves them on a global clock so cross-engine
// bandwidth contention is simulated faithfully. It does so by
// conservative run-ahead: each engine runs on its own clock through
// engine-local quanta (ALU, immediate, branch, RX/TX FIFO and
// context-swap ops, thread switches, idle skips) and stops before the
// next quantum that touches chip-shared state (an SRAM, SDRAM or
// scratch reference, hash, bit-test-and-set, CSR access). Shared
// quanta, budget stops and failures are taken across engines in
// (clock, engine index) order: the engine whose pending event sorts
// first keeps running, through as many shared quanta as it can, until
// its clock no longer sorts before the runner-up's. That is exact
// because nothing the other engines hold changes while it runs, so it
// would have been picked again every time. The result is exactly that
// of stepping the engine with the smallest clock one quantum at a
// time: a local quantum cannot observe another engine, and everything
// that can is ordered as before, including which engine an error
// names.
//
// Stats splits memory traffic by space (SRAMRefs, SDRAMRefs,
// ScratchRefs, HashRefs, FIFORefs) and attributes lost cycles:
// StallCycles is time no thread was runnable (latency the thread
// swapping could not hide) and PortWaitCycles is time references
// queued behind a busy memory port (bandwidth). The same figures are
// published on the always-on ixp/ obs counters — see DESIGN.md §8.
package ixp
