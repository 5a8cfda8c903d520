package ixp

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
	"repro/internal/obs"
	"repro/internal/types"
)

// Simulator counters (DESIGN.md §8): tallied in plain Machine fields
// while an engine runs (each engine runs on one goroutine) and flushed
// with atomic adds when a run's statistics are collected, so the
// cycle-accurate loop carries no instrumentation cost.
var (
	cIxpCycles    = obs.NewCounter("ixp/cycles")
	cIxpInstrs    = obs.NewCounter("ixp/instrs")
	cIxpSwaps     = obs.NewCounter("ixp/swaps")
	cIxpSRAMRefs  = obs.NewCounter("ixp/sram_refs")
	cIxpSDRAMRefs = obs.NewCounter("ixp/sdram_refs")
	cIxpScratch   = obs.NewCounter("ixp/scratch_refs")
	cIxpHashRefs  = obs.NewCounter("ixp/hash_refs")
	cIxpFIFORefs  = obs.NewCounter("ixp/fifo_refs")
	cIxpStalls    = obs.NewCounter("ixp/stall_cycles")
	cIxpPortWait  = obs.NewCounter("ixp/port_wait_cycles")
)

// Config sets the machine parameters.
type Config struct {
	ClockMHz       float64
	SRAMWords      int
	SDRAMWords     int
	ScratchWords   int
	Threads        int // hardware threads running the program
	SRAMLatency    int // cycles until a read completes
	SDRAMLatency   int
	ScratchLatency int
	HashLatency    int
	FIFOLatency    int
	BranchPenalty  int // extra cycles for a taken branch (pipeline refill)
	SwapCost       int // context-switch cost in cycles

	// Per-access port occupancies: how long each memory unit is busy
	// per reference (bandwidth, as opposed to latency).
	SRAMOccupancy    int
	SDRAMOccupancy   int
	ScratchOccupancy int
	HashOccupancy    int
}

// DefaultConfig approximates the paper's 233 MHz IXP1200.
func DefaultConfig() Config {
	return Config{
		ClockMHz:       233,
		SRAMWords:      1 << 20,
		SDRAMWords:     1 << 22,
		ScratchWords:   1024,
		Threads:        4,
		SRAMLatency:    20,
		SDRAMLatency:   36,
		ScratchLatency: 14,
		HashLatency:    18,
		FIFOLatency:    10,
		BranchPenalty:  2,
		SwapCost:       1,

		SRAMOccupancy:    2,
		SDRAMOccupancy:   4,
		ScratchOccupancy: 2,
		HashOccupancy:    6,
	}
}

// RunError attributes a simulator failure to the chip and engine it
// happened on, so concurrent runners (the fleet harness runs many
// chips at once) surface failures that name their origin. Engine is
// -1 for chip-level failures not tied to one engine; Chip is -1 for a
// standalone Machine. Unwrap exposes the underlying cause.
type RunError struct {
	Chip   int
	Engine int
	Err    error
}

// Error renders the failure with its chip/engine attribution.
func (e *RunError) Error() string {
	switch {
	case e.Chip >= 0 && e.Engine >= 0:
		return fmt.Sprintf("ixp: chip %d engine %d: %v", e.Chip, e.Engine, e.Err)
	case e.Chip >= 0:
		return fmt.Sprintf("ixp: chip %d: %v", e.Chip, e.Err)
	default:
		return fmt.Sprintf("ixp: engine %d: %v", e.Engine, e.Err)
	}
}

// Unwrap returns the underlying cause.
func (e *RunError) Unwrap() error { return e.Err }

// Machine is one micro-engine plus its attached memories.
type Machine struct {
	Cfg     Config
	SRAM    []uint32
	SDRAM   []uint32
	Scratch []uint32
	CSR     map[uint32]uint32
	TX      []uint32 // transmit FIFO contents, in write order

	// EngineID and ChipID attribute this machine's errors when many
	// engines or chips run concurrently. New sets ChipID to -1
	// (standalone); NewChip and Chip.SetID fill both in.
	EngineID int
	ChipID   int

	prog    *asm.Program
	threads []*thread
	// shared[pc] marks the program's instructions that touch
	// chip-shared state (see sharedOp), decoded once per program.
	shared []bool

	// Engine-local scheduling state (a clock per engine, so the
	// engines of one chip can run ahead of each other; see Chip.Run).
	clock int64
	cur   int
	swaps int64

	// Per-run telemetry, reset by Load and flushed to the ixp/ obs
	// counters by collect. Plain fields: an engine runs on one
	// goroutine, so the hot loop pays no synchronization.
	sramRefs    int64
	sdramRefs   int64
	scratchRefs int64
	hashRefs    int64
	fifoRefs    int64
	stallCycles int64 // cycles every thread slept (latency not hidden)
	portWait    int64 // cycles references waited for a busy memory port

	// Memory units shared across the engines of a chip; accesses
	// occupy a unit for a few cycles, so engines contend for
	// bandwidth (the paper: "All tables reside in SRAM, resulting in
	// contention").
	units *[numUnits]memUnit
}

// Unit slots: the three memory spaces, indexed by their cps.Space
// (cps.SpaceSRAM, cps.SpaceSDRAM, cps.SpaceScratch), then the hash
// unit.
const (
	hashUnit = cps.SpaceScratch + 1
	numUnits = hashUnit + 1
)

// memUnit models one memory port's bandwidth.
type memUnit struct {
	nextFree  int64
	occupancy int64
}

// grant arbitrates an access issued at the given cycle and returns the
// cycle at which the unit accepted it.
func (u *memUnit) grant(cycle int64) int64 {
	g := cycle
	if u.nextFree > g {
		g = u.nextFree
	}
	u.nextFree = g + u.occupancy
	return g
}

type thread struct {
	id      int
	regs    [int(core.NumBanks)][16]uint32
	pc      int
	running bool
	halted  bool
	wakeAt  int64
	results []uint32
	rx      []uint32 // receive-FIFO contents for this thread

	instrs  int64
	memRefs int64
}

// New builds a machine.
func New(cfg Config) *Machine {
	m := &Machine{
		Cfg:     cfg,
		SRAM:    make([]uint32, cfg.SRAMWords),
		SDRAM:   make([]uint32, cfg.SDRAMWords),
		Scratch: make([]uint32, cfg.ScratchWords),
		CSR:     map[uint32]uint32{},
		ChipID:  -1,
	}
	for i := 0; i < cfg.Threads; i++ {
		m.threads = append(m.threads, &thread{id: i})
	}
	m.units = &[numUnits]memUnit{
		cps.SpaceSRAM:    {occupancy: int64(cfg.SRAMOccupancy)},
		cps.SpaceSDRAM:   {occupancy: int64(cfg.SDRAMOccupancy)},
		cps.SpaceScratch: {occupancy: int64(cfg.ScratchOccupancy)},
		hashUnit:         {occupancy: int64(cfg.HashOccupancy)},
	}
	return m
}

// Load installs a program on every thread. Reloading the program a
// machine already holds reuses its decoded form, so a program must not
// be modified once loaded.
func (m *Machine) Load(p *asm.Program) {
	if p != m.prog || len(m.shared) != len(p.Instrs) {
		m.shared = make([]bool, len(p.Instrs))
		for pc := range p.Instrs {
			m.shared[pc] = sharedOp(&p.Instrs[pc])
		}
	}
	m.prog = p
	for _, t := range m.threads {
		t.pc = 0
		t.halted = false
		t.running = false
		t.results = nil
		t.wakeAt = 0
		t.instrs, t.memRefs = 0, 0
	}
	m.clock = 0
	m.cur = -1
	m.swaps = 0
	m.sramRefs, m.sdramRefs, m.scratchRefs = 0, 0, 0
	m.hashRefs, m.fifoRefs = 0, 0
	m.stallCycles, m.portWait = 0, 0
	for i := range m.units {
		m.units[i].nextFree = 0
	}
}

// sharedOp reports whether the instruction touches state the engines
// of a chip share: a memory or CSR reference, or the hash unit. The RX
// and TX FIFOs are per-thread and per-engine, so FIFO references are
// engine-local, as are ALU, immediate, branch and context-swap
// instructions.
func sharedOp(in *asm.Instr) bool {
	switch in.Op {
	case asm.OpRead, asm.OpWrite:
		return in.Space != cps.SpaceRFIFO && in.Space != cps.SpaceTFIFO
	case asm.OpHash, asm.OpBTS, asm.OpCSRRd, asm.OpCSRWr:
		return true
	}
	return false
}

// SetArgs places entry argument values into a thread's registers.
func (m *Machine) SetArgs(threadID int, regs []asm.Reg, args []uint32) error {
	if len(regs) != len(args) {
		return fmt.Errorf("ixp: %d regs for %d args", len(regs), len(args))
	}
	t := m.threads[threadID]
	for i, r := range regs {
		t.regs[r.Bank][r.Idx] = args[i]
	}
	t.running = true
	return nil
}

// SetRX fills a thread's receive FIFO.
func (m *Machine) SetRX(threadID int, words []uint32) {
	m.threads[threadID].rx = append([]uint32(nil), words...)
}

// Stats reports a run's outcome. The reference counts split MemRefs by
// memory space, and the two cycle-accounting fields attribute lost
// time: StallCycles is time no thread was runnable (memory latency the
// thread swapping could not hide), PortWaitCycles is time references
// queued behind a busy memory port (bandwidth contention).
type Stats struct {
	Cycles  int64
	Instrs  int64
	MemRefs int64
	Swaps   int64
	Results [][]uint32 // per running thread, halt results

	SRAMRefs       int64
	SDRAMRefs      int64
	ScratchRefs    int64
	HashRefs       int64
	FIFORefs       int64
	StallCycles    int64
	PortWaitCycles int64
}

// Seconds converts cycles to wall-clock time at the configured clock.
func (m *Machine) Seconds(cycles int64) float64 {
	return float64(cycles) / (m.Cfg.ClockMHz * 1e6)
}

// event is why runAhead stopped.
type event int

const (
	evDone   event = iota // no started thread can run again
	evShared              // the next quantum touches chip-shared state
	evBudget              // the clock reached the cycle budget
	evErr                 // a quantum failed
)

// runAhead advances the engine quantum by quantum at its local clock —
// one instruction of the current thread, a context switch, or an idle
// skip to the next wake-up — until it is done, its clock reaches
// maxCycles, or a quantum fails. With stop set it also stops, without
// executing it, before an instruction that touches chip-shared state
// (sharedOp); the chip executes that one with stepCur.
func (m *Machine) runAhead(maxCycles int64, stop bool) (event, error) {
	for m.clock < maxCycles {
		// Prefer the current thread while it is runnable (context
		// switches are not free).
		if m.cur >= 0 {
			t := m.threads[m.cur]
			if t.running && !t.halted && t.wakeAt <= m.clock {
				if stop && m.shared[t.pc] {
					return evShared, nil
				}
				if err := m.stepCur(); err != nil {
					return evErr, err
				}
				continue
			}
		}
		done, err := m.schedule()
		if err != nil {
			return evErr, err
		}
		if done {
			return evDone, nil
		}
	}
	return evBudget, nil
}

// stepCur executes one instruction of the current thread at the
// engine's clock.
func (m *Machine) stepCur() error {
	t := m.threads[m.cur]
	c, err := m.step(t, m.clock)
	if err != nil {
		return fmt.Errorf("thread %d pc %d: %w", t.id, t.pc, err)
	}
	m.clock += int64(c)
	return nil
}

// schedule runs the quantum taken when the current thread cannot run:
// a switch to the next runnable thread (round-robin from cur+1) or an
// idle skip to the earliest wake-up. done reports that no started
// thread can ever run again.
func (m *Machine) schedule() (done bool, err error) {
	next := -1
	for i := 1; i <= len(m.threads); i++ {
		c := (m.cur + i) % len(m.threads)
		t := m.threads[c]
		if t.running && !t.halted && t.wakeAt <= m.clock {
			next = c
			break
		}
	}
	if next < 0 {
		// Advance to the earliest wake-up.
		var minWake int64 = -1
		for _, t := range m.threads {
			if t.running && !t.halted {
				if minWake < 0 || t.wakeAt < minWake {
					minWake = t.wakeAt
				}
			}
		}
		if minWake < 0 {
			return true, nil
		}
		if minWake <= m.clock {
			return false, fmt.Errorf("scheduler stuck at cycle %d", m.clock)
		}
		m.stallCycles += minWake - m.clock
		m.clock = minWake
		return false, nil
	}
	if m.cur >= 0 && next != m.cur {
		m.clock += int64(m.Cfg.SwapCost)
		m.swaps++
	}
	m.cur = next
	return false, nil
}

// active reports whether any started thread is still running.
func (m *Machine) active() bool {
	for _, t := range m.threads {
		if t.running && !t.halted {
			return true
		}
	}
	return false
}

// attr wraps err with this machine's chip/engine attribution, leaving
// already-attributed errors alone.
func (m *Machine) attr(err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*RunError); ok {
		return err
	}
	return &RunError{Chip: m.ChipID, Engine: m.EngineID, Err: err}
}

// Run executes until every started thread halts or the cycle budget is
// exhausted. Failures are returned as *RunError carrying the machine's
// chip/engine identity.
func (m *Machine) Run(maxCycles int64) (*Stats, error) {
	if m.prog == nil {
		return nil, m.attr(fmt.Errorf("no program loaded"))
	}
	if ev, err := m.runAhead(maxCycles, false); ev == evErr {
		return nil, m.attr(err)
	}
	st := &Stats{}
	if err := m.collect(st); err != nil {
		return st, m.attr(err)
	}
	return st, nil
}

// collect folds the engine's run into st — counts add up, Cycles is
// the largest engine clock, Results append in thread order — and
// publishes the engine's tallies to the process-wide ixp/ counters. It
// fails, publishing nothing, when a started thread has not halted.
func (m *Machine) collect(st *Stats) error {
	var instrs, memRefs int64
	for _, t := range m.threads {
		instrs += t.instrs
		memRefs += t.memRefs
		if t.running {
			st.Results = append(st.Results, t.results)
		}
		if t.running && !t.halted {
			return fmt.Errorf("cycle budget exhausted (thread %d at pc %d)", t.id, t.pc)
		}
	}
	st.Cycles = max(st.Cycles, m.clock)
	st.Instrs += instrs
	st.MemRefs += memRefs
	st.Swaps += m.swaps
	st.SRAMRefs += m.sramRefs
	st.SDRAMRefs += m.sdramRefs
	st.ScratchRefs += m.scratchRefs
	st.HashRefs += m.hashRefs
	st.FIFORefs += m.fifoRefs
	st.StallCycles += m.stallCycles
	st.PortWaitCycles += m.portWait

	cIxpCycles.Add(m.clock)
	cIxpInstrs.Add(instrs)
	cIxpSwaps.Add(m.swaps)
	cIxpSRAMRefs.Add(m.sramRefs)
	cIxpSDRAMRefs.Add(m.sdramRefs)
	cIxpScratch.Add(m.scratchRefs)
	cIxpHashRefs.Add(m.hashRefs)
	cIxpFIFORefs.Add(m.fifoRefs)
	cIxpStalls.Add(m.stallCycles)
	cIxpPortWait.Add(m.portWait)
	return nil
}

// noteRef tallies one memory reference against its space.
func (m *Machine) noteRef(space cps.Space) {
	switch space {
	case cps.SpaceSRAM:
		m.sramRefs++
	case cps.SpaceSDRAM:
		m.sdramRefs++
	case cps.SpaceScratch:
		m.scratchRefs++
	case cps.SpaceRFIFO, cps.SpaceTFIFO:
		m.fifoRefs++
	}
}

func (t *thread) get(o asm.Operand) uint32 {
	if o.IsImm {
		return o.Imm
	}
	return t.regs[o.Reg.Bank][o.Reg.Idx]
}

func (m *Machine) mem(space cps.Space) ([]uint32, int, error) {
	switch space {
	case cps.SpaceSRAM:
		return m.SRAM, m.Cfg.SRAMLatency, nil
	case cps.SpaceSDRAM:
		return m.SDRAM, m.Cfg.SDRAMLatency, nil
	case cps.SpaceScratch:
		return m.Scratch, m.Cfg.ScratchLatency, nil
	}
	return nil, 0, fmt.Errorf("bad space %v", space)
}

// step executes one instruction at the given cycle, returning its
// issue cost. Blocking references set the thread's wake-up time; the
// scheduler switches to another thread to hide the latency.
func (m *Machine) step(t *thread, cycle int64) (int, error) {
	in := &m.prog.Instrs[t.pc]
	t.instrs++
	cost := 1
	switch in.Op {
	case asm.OpAlu:
		l, r := t.get(in.L), t.get(in.R)
		v, ok := types.EvalBinop(in.Alu, l, r)
		if !ok {
			return 0, fmt.Errorf("alu %v %d %d", in.Alu, l, r)
		}
		t.regs[in.Dst.Bank][in.Dst.Idx] = v
		t.pc++
	case asm.OpImm:
		t.regs[in.Dst.Bank][in.Dst.Idx] = in.Val
		cost = in.Words()
		t.pc++
	case asm.OpRead:
		t.memRefs++
		m.noteRef(in.Space)
		addr := t.get(in.Addr)
		var lat int
		if in.Space == cps.SpaceRFIFO {
			lat = m.Cfg.FIFOLatency
			for i := 0; i < in.Count; i++ {
				idx := int(addr) + i
				if idx >= len(t.rx) {
					return 0, fmt.Errorf("rfifo read %d beyond %d", idx, len(t.rx))
				}
				t.regs[core.L][in.Base+i] = t.rx[idx]
			}
		} else {
			mem, l, err := m.mem(in.Space)
			if err != nil {
				return 0, err
			}
			lat = l
			if in.Space == cps.SpaceSDRAM && addr%2 != 0 {
				return 0, fmt.Errorf("unaligned sdram read at %d", addr)
			}
			dstBank := core.L
			if in.Space == cps.SpaceSDRAM {
				dstBank = core.LD
			}
			for i := 0; i < in.Count; i++ {
				idx := int(addr) + i
				if idx >= len(mem) {
					return 0, fmt.Errorf("%v read at %d out of range", in.Space, idx)
				}
				t.regs[dstBank][in.Base+i] = mem[idx]
			}
		}
		// The thread blocks until the data arrives; other threads (and
		// other engines) contend for the memory port.
		t.pc++
		g := cycle + 1
		if in.Space != cps.SpaceRFIFO {
			g = m.units[in.Space].grant(cycle + 1)
			m.portWait += g - (cycle + 1)
		}
		t.wakeAt = g + int64(lat)
		return 1, nil
	case asm.OpWrite:
		t.memRefs++
		m.noteRef(in.Space)
		addr := t.get(in.Addr)
		if in.Space == cps.SpaceTFIFO {
			for i := 0; i < in.Count; i++ {
				m.TX = append(m.TX, t.regs[core.S][in.Base+i])
			}
			t.pc++
			return 1, nil
		}
		mem, _, err := m.mem(in.Space)
		if err != nil {
			return 0, err
		}
		if in.Space == cps.SpaceSDRAM && addr%2 != 0 {
			return 0, fmt.Errorf("unaligned sdram write at %d", addr)
		}
		srcBank := core.S
		if in.Space == cps.SpaceSDRAM {
			srcBank = core.SD
		}
		for i := 0; i < in.Count; i++ {
			idx := int(addr) + i
			if idx >= len(mem) {
				return 0, fmt.Errorf("%v write at %d out of range", in.Space, idx)
			}
			mem[idx] = t.regs[srcBank][in.Base+i]
		}
		// Writes retire asynchronously; the thread keeps running, but
		// the reference still consumes port bandwidth.
		g := m.units[in.Space].grant(cycle + 1)
		m.portWait += g - (cycle + 1)
		t.pc++
	case asm.OpHash:
		t.memRefs++
		m.hashRefs++
		v := t.regs[core.S][in.Base]
		t.regs[core.L][in.Dst.Idx] = cps.DefaultHash(v)
		t.pc++
		g := m.units[hashUnit].grant(cycle + 1)
		m.portWait += g - (cycle + 1)
		t.wakeAt = g + int64(m.Cfg.HashLatency)
		return 1, nil
	case asm.OpBTS:
		t.memRefs++
		m.sramRefs++
		addr := t.get(in.Addr)
		if int(addr) >= len(m.SRAM) {
			return 0, fmt.Errorf("bts address %d out of range", addr)
		}
		old := m.SRAM[addr]
		m.SRAM[addr] |= t.regs[core.S][in.Base]
		t.regs[core.L][in.Dst.Idx] = old
		t.pc++
		u := &m.units[cps.SpaceSRAM]
		g := u.grant(cycle + 1)
		m.portWait += g - (cycle + 1)
		u.grant(g) // read-modify-write holds the port twice
		t.wakeAt = g + int64(m.Cfg.SRAMLatency)
		return 1, nil
	case asm.OpCSRRd:
		t.regs[core.L][in.Dst.Idx] = m.CSR[t.get(in.Addr)]
		t.pc++
		cost = 2
	case asm.OpCSRWr:
		m.CSR[t.get(in.Addr)] = t.regs[core.S][in.Base]
		t.pc++
		cost = 2
	case asm.OpCtxSwap:
		// Yield: runnable again one cycle after issue.
		t.pc++
		t.wakeAt = cycle + 2
		return 1, nil
	case asm.OpBr:
		l, r := t.get(in.L), t.get(in.R)
		if cmpOp(in.Alu, l, r) {
			t.pc = in.Target
			cost = 1 + m.Cfg.BranchPenalty
		} else {
			t.pc++
		}
	case asm.OpJmp:
		t.pc = in.Target
		cost = 1 + m.Cfg.BranchPenalty
	case asm.OpHalt:
		for _, r := range in.Results {
			t.results = append(t.results, t.get(r))
		}
		t.halted = true
	default:
		return 0, fmt.Errorf("bad opcode %v", in.Op)
	}
	return cost, nil
}

func cmpOp(op ast.BinOp, l, r uint32) bool {
	switch op {
	case ast.OpEq:
		return l == r
	case ast.OpNe:
		return l != r
	case ast.OpLt:
		return l < r
	case ast.OpGt:
		return l > r
	case ast.OpLe:
		return l <= r
	case ast.OpGe:
		return l >= r
	}
	return false
}
