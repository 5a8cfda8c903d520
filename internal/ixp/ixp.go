package ixp

import (
	"fmt"
	"math"

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

	prog *asm.Program
	// code is prog decoded once (see decode); the engines of a chip
	// share one copy.
	code    []op
	threads []thread

	// Engine-local scheduling state (a clock per engine, so the
	// engines of one chip can run ahead of each other; see Chip.Run).
	clock int64
	cur   int
	swaps int64

	// Per-run telemetry, reset by Load and flushed to the ixp/ obs
	// counters by collect. Plain fields: an engine runs on one
	// goroutine, so the hot loop pays no synchronization.
	instrs      int64
	refs        [numRefs]int64 // references per memory unit, then FIFO references
	stallCycles int64          // cycles every thread slept (latency not hidden)
	portWait    int64          // cycles references waited for a busy memory port

	// Memory units shared across the engines of a chip; accesses
	// occupy a unit for a few cycles, so engines contend for
	// bandwidth (the paper: "All tables reside in SRAM, resulting in
	// contention").
	units *[numUnits]memUnit
}

// Unit slots: the three memory spaces, indexed by their cps.Space
// (cps.SpaceSRAM, cps.SpaceSDRAM, cps.SpaceScratch), then the hash
// unit. Machine.refs counts references per unit, then RX and TX FIFO
// references in slot fifoRefs.
const (
	hashUnit = cps.SpaceScratch + 1
	numUnits = hashUnit + 1
	fifoRefs = numUnits
	numRefs  = fifoRefs + 1
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

// never is the wakeAt of a thread that is halted or was never started.
const never = math.MaxInt64

type thread struct {
	// wakeAt is the first cycle the thread can issue at: the thread is
	// runnable at cycle c when wakeAt <= c.
	wakeAt  int64
	pc      int
	regs    [int(core.NumBanks) * bankRegs]uint32 // flat: bank*bankRegs + idx
	id      int
	running bool // started by SetArgs since the last Load
	halted  bool
	results []uint32
	rx      []uint32 // receive-FIFO contents for this thread
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
		threads: make([]thread, cfg.Threads),
	}
	for i := range m.threads {
		m.threads[i] = thread{id: i, wakeAt: never}
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
	code := m.code
	if p != m.prog {
		code = decode(p)
	}
	m.load(p, code)
}

// load installs p, decoded as code, and resets the run state.
func (m *Machine) load(p *asm.Program, code []op) {
	m.prog, m.code = p, code
	for i := range m.threads {
		t := &m.threads[i]
		t.pc, t.wakeAt = 0, never
		t.running, t.halted = false, false
		t.results = nil
	}
	m.clock, m.cur, m.swaps = 0, -1, 0
	m.instrs, m.refs = 0, [numRefs]int64{}
	m.stallCycles, m.portWait = 0, 0
	for i := range m.units {
		m.units[i].nextFree = 0
	}
}

// SetArgs places entry argument values into a thread's registers and
// starts the thread.
func (m *Machine) SetArgs(threadID int, regs []asm.Reg, args []uint32) error {
	if len(regs) != len(args) {
		return fmt.Errorf("ixp: %d regs for %d args", len(regs), len(args))
	}
	t := &m.threads[threadID]
	var d decoder
	for i, r := range regs {
		idx := d.reg(r)
		if d.err != nil {
			return fmt.Errorf("ixp: entry argument %d: %w", i, d.err)
		}
		t.regs[idx] = args[i]
	}
	if !t.running {
		t.running, t.wakeAt = true, 0
	}
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
// one op of the current thread, a context switch, or an idle skip to
// the next wake-up — until it is done, its clock reaches maxCycles, or
// a quantum fails. It also stops, without executing it, before an op
// that touches chip-shared state (op.shared) once its clock reaches
// limit: Machine.Run passes math.MaxInt64 (never stop), Chip.Run the
// first clock at which this engine no longer sorts before the
// runner-up.
func (m *Machine) runAhead(maxCycles, limit int64) (event, error) {
	clock, code := m.clock, m.code
	for clock < maxCycles {
		// Prefer the current thread while it is runnable (context
		// switches are not free).
		if m.cur >= 0 {
			t := &m.threads[m.cur]
			for t.wakeAt <= clock && clock < maxCycles {
				o := &code[t.pc]
				if o.shared && clock >= limit {
					m.clock = clock
					return evShared, nil
				}
				c, err := m.exec(t, o, clock)
				if err != nil {
					m.clock = clock
					return evErr, fmt.Errorf("thread %d pc %d: %w", t.id, t.pc, err)
				}
				clock += c
			}
			if clock >= maxCycles {
				break
			}
		}
		var done bool
		if clock, done = m.schedule(clock); done {
			m.clock = clock
			return evDone, nil
		}
	}
	m.clock = clock
	return evBudget, nil
}

// schedule runs the quantum taken at clock when the current thread
// cannot issue: a switch to the next runnable thread (round-robin from
// cur+1) or an idle skip to the earliest wake-up. It returns the clock
// after the quantum; done reports that no started thread can ever run
// again.
func (m *Machine) schedule(clock int64) (after int64, done bool) {
	n := len(m.threads)
	next, wake := m.cur, int64(never)
	for range n {
		if next++; next == n {
			next = 0
		}
		w := m.threads[next].wakeAt
		if w <= clock {
			if m.cur >= 0 && next != m.cur {
				clock += int64(m.Cfg.SwapCost)
				m.swaps++
			}
			m.cur = next
			return clock, false
		}
		wake = min(wake, w)
	}
	if wake == never {
		return clock, true
	}
	m.stallCycles += wake - clock
	return wake, false
}

// active reports whether any started thread is still running.
func (m *Machine) active() bool {
	for i := range m.threads {
		if m.threads[i].wakeAt != never {
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
	if ev, err := m.runAhead(maxCycles, math.MaxInt64); ev == evErr {
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
	for i := range m.threads {
		t := &m.threads[i]
		if t.running {
			st.Results = append(st.Results, t.results)
		}
		if t.wakeAt != never {
			return fmt.Errorf("cycle budget exhausted (thread %d at pc %d)", t.id, t.pc)
		}
	}
	// Every reference is to exactly one unit or FIFO.
	var memRefs int64
	for _, n := range m.refs {
		memRefs += n
	}
	st.Cycles = max(st.Cycles, m.clock)
	st.Instrs += m.instrs
	st.MemRefs += memRefs
	st.Swaps += m.swaps
	st.SRAMRefs += m.refs[cps.SpaceSRAM]
	st.SDRAMRefs += m.refs[cps.SpaceSDRAM]
	st.ScratchRefs += m.refs[cps.SpaceScratch]
	st.HashRefs += m.refs[hashUnit]
	st.FIFORefs += m.refs[fifoRefs]
	st.StallCycles += m.stallCycles
	st.PortWaitCycles += m.portWait

	cIxpCycles.Add(m.clock)
	cIxpInstrs.Add(m.instrs)
	cIxpSwaps.Add(m.swaps)
	cIxpSRAMRefs.Add(m.refs[cps.SpaceSRAM])
	cIxpSDRAMRefs.Add(m.refs[cps.SpaceSDRAM])
	cIxpScratch.Add(m.refs[cps.SpaceScratch])
	cIxpHashRefs.Add(m.refs[hashUnit])
	cIxpFIFORefs.Add(m.refs[fifoRefs])
	cIxpStalls.Add(m.stallCycles)
	cIxpPortWait.Add(m.portWait)
	return nil
}

func (t *thread) get(o operand) uint32 {
	if o.imm {
		return o.val
	}
	return t.regs[o.reg]
}

// grant arbitrates a reference issued at clock on unit u and returns
// the cycle the unit accepted it, charging the wait to portWait.
func (m *Machine) grant(u cps.Space, clock int64) int64 {
	g := m.units[u].grant(clock + 1)
	m.portWait += g - (clock + 1)
	return g
}

// exec executes op o of thread t at the given cycle and returns its
// issue cost. Blocking references set the thread's wake-up time; the
// scheduler switches to another thread to hide the latency. Ops that
// do not branch, halt or fail advance the pc and cost one cycle unless
// they say otherwise.
func (m *Machine) exec(t *thread, o *op, clock int64) (int64, error) {
	m.instrs++
	switch o.kind {
	case opALU:
		l, r := t.get(o.l), t.get(o.r)
		v, ok := types.EvalBinop(o.alu, l, r)
		if !ok {
			return 0, fmt.Errorf("alu %v %d %d", o.alu, l, r)
		}
		t.regs[o.dst] = v
	case opImm:
		t.regs[o.dst] = o.l.val
		t.pc++
		return o.words, nil
	case opFIFORead:
		m.refs[fifoRefs]++
		addr := int(t.get(o.addr))
		for i := range int(o.count) {
			idx := addr + i
			if idx >= len(t.rx) {
				return 0, fmt.Errorf("rfifo read %d beyond %d", idx, len(t.rx))
			}
			t.regs[int(o.xfer)+i] = t.rx[idx]
		}
		t.wakeAt = clock + 1 + int64(m.Cfg.FIFOLatency)
	case opMemRead:
		m.refs[o.space]++
		addr := t.get(o.addr)
		mem, lat := m.SRAM, m.Cfg.SRAMLatency
		switch o.space {
		case cps.SpaceSDRAM:
			if addr%2 != 0 {
				return 0, fmt.Errorf("unaligned sdram read at %d", addr)
			}
			mem, lat = m.SDRAM, m.Cfg.SDRAMLatency
		case cps.SpaceScratch:
			mem, lat = m.Scratch, m.Cfg.ScratchLatency
		}
		for i := range int(o.count) {
			idx := int(addr) + i
			if idx >= len(mem) {
				return 0, fmt.Errorf("%v read at %d out of range", o.space, idx)
			}
			t.regs[int(o.xfer)+i] = mem[idx]
		}
		// The thread blocks until the data arrives; other threads (and
		// other engines) contend for the memory port.
		t.wakeAt = m.grant(o.space, clock) + int64(lat)
	case opTXWrite:
		m.refs[fifoRefs]++
		for i := range int(o.count) {
			m.TX = append(m.TX, t.regs[int(o.xfer)+i])
		}
	case opMemWrite:
		m.refs[o.space]++
		addr := t.get(o.addr)
		mem := m.SRAM
		switch o.space {
		case cps.SpaceSDRAM:
			if addr%2 != 0 {
				return 0, fmt.Errorf("unaligned sdram write at %d", addr)
			}
			mem = m.SDRAM
		case cps.SpaceScratch:
			mem = m.Scratch
		}
		for i := range int(o.count) {
			idx := int(addr) + i
			if idx >= len(mem) {
				return 0, fmt.Errorf("%v write at %d out of range", o.space, idx)
			}
			mem[idx] = t.regs[int(o.xfer)+i]
		}
		// Writes retire asynchronously; the thread keeps running, but
		// the reference still consumes port bandwidth.
		m.grant(o.space, clock)
	case opHash:
		m.refs[hashUnit]++
		t.regs[o.dst] = cps.DefaultHash(t.regs[o.xfer])
		t.wakeAt = m.grant(hashUnit, clock) + int64(m.Cfg.HashLatency)
	case opBTS:
		m.refs[cps.SpaceSRAM]++
		addr := t.get(o.addr)
		if int(addr) >= len(m.SRAM) {
			return 0, fmt.Errorf("bts address %d out of range", addr)
		}
		old := m.SRAM[addr]
		m.SRAM[addr] |= t.regs[o.xfer]
		t.regs[o.dst] = old
		g := m.grant(cps.SpaceSRAM, clock)
		m.units[cps.SpaceSRAM].grant(g) // read-modify-write holds the port twice
		t.wakeAt = g + int64(m.Cfg.SRAMLatency)
	case opCSRRd:
		t.regs[o.dst] = m.CSR[t.get(o.addr)]
		t.pc++
		return 2, nil
	case opCSRWr:
		m.CSR[t.get(o.addr)] = t.regs[o.xfer]
		t.pc++
		return 2, nil
	case opCtxSwap:
		// Yield: runnable again one cycle after issue.
		t.wakeAt = clock + 2
	case opBr:
		if cmpOp(o.alu, t.get(o.l), t.get(o.r)) {
			t.pc = int(o.target)
			return 1 + int64(m.Cfg.BranchPenalty), nil
		}
	case opJmp:
		t.pc = int(o.target)
		return 1 + int64(m.Cfg.BranchPenalty), nil
	case opHalt:
		for _, r := range o.results {
			t.results = append(t.results, t.get(r))
		}
		t.halted, t.wakeAt = true, never
		return 1, nil
	case opFail:
		return 0, o.err
	}
	t.pc++
	return 1, nil
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
