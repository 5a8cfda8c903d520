package ixp

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/asm"
)

// Chip is a full IXP1200: several micro-engines sharing the SRAM,
// SDRAM, and scratch memories and their ports, plus the hash unit.
// Engines run on one global clock; memory references from different
// engines contend for port bandwidth, which is what bounds the
// chip-level scaling (the paper keeps all AES tables in SRAM and notes
// the resulting contention).
type Chip struct {
	Cfg     Config
	Engines []*Machine

	// ID names the chip in attributed errors and fleet telemetry
	// (fleet/chipN/*). NewChip sets 0; SetID renames chip and engines
	// together.
	ID int
}

// pending is an engine's next event in Run: done, a shared quantum to
// take at its clock, or a budget stop or failure to report there. key
// orders the events: the engine's clock and index packed into one
// int64 (see Chip.Run), math.MaxInt64 once the engine is done.
type pending struct {
	key int64
	ev  event
	err error
}

// NumEngines on a real IXP1200.
const NumEngines = 6

// NewChip builds a chip with n engines sharing one memory system.
func NewChip(cfg Config, n int) *Chip {
	c := &Chip{Cfg: cfg}
	first := New(cfg)
	c.Engines = append(c.Engines, first)
	for i := 1; i < n; i++ {
		e := New(cfg)
		// Share the memory system and the arbitration state.
		e.SRAM = first.SRAM
		e.SDRAM = first.SDRAM
		e.Scratch = first.Scratch
		e.CSR = first.CSR
		e.units = first.units
		c.Engines = append(c.Engines, e)
	}
	c.SetID(0)
	return c
}

// SetID renames the chip and stamps the chip/engine identity onto its
// engines, so every error out of Run is attributable (fleet harness
// chips are numbered 0..N-1).
func (c *Chip) SetID(id int) {
	c.ID = id
	for i, e := range c.Engines {
		e.ChipID = id
		e.EngineID = i
	}
}

// attr wraps err with chip/engine attribution (engine -1 for failures
// not tied to one engine), leaving already-attributed errors alone.
func (c *Chip) attr(engine int, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*RunError); ok {
		return err
	}
	return &RunError{Chip: c.ID, Engine: engine, Err: err}
}

// SRAM returns the shared SRAM image.
func (c *Chip) SRAM() []uint32 { return c.Engines[0].SRAM }

// SDRAM returns the shared SDRAM image.
func (c *Chip) SDRAM() []uint32 { return c.Engines[0].SDRAM }

// Scratch returns the shared scratch image.
func (c *Chip) Scratch() []uint32 { return c.Engines[0].Scratch }

// Load installs a program on every engine and resets the clocks. The
// program is decoded once and shared by the engines; reloading the
// program the chip already holds reuses its decoded form.
func (c *Chip) Load(p *asm.Program) {
	first := c.Engines[0]
	first.Load(p)
	for _, e := range c.Engines[1:] {
		e.load(p, first.code)
	}
}

// Run advances all engines on a single global clock until every
// started thread halts. Each engine runs ahead on its own clock
// through quanta that touch only its own state (ALU, immediate,
// branch, FIFO and context-swap ops, thread switches, idle skips) and
// stops before the next one that touches chip-shared state. Those
// shared quanta — and budget stops and failures, which wait as pending
// events at the clock they happened — are taken across engines in
// (clock, engine index) order, so memory- and hash-port grants are
// issued in true time order and the first error reported is the one
// at the earliest (clock, engine). The engine whose pending event
// sorts first keeps running, through further shared quanta, for as
// long as it still sorts before the runner-up: nothing the other
// engines hold changes meanwhile, so it would have been picked again
// each time. Local quanta cannot observe another engine, so every bit
// of the outcome equals interleaving all engines one quantum at a
// time. Failures are returned as *RunError naming the chip and engine
// they happened on.
func (c *Chip) Run(maxCycles int64) (*Stats, error) {
	anyStarted := false
	for i, e := range c.Engines {
		if e.prog == nil {
			return nil, c.attr(i, fmt.Errorf("no program loaded"))
		}
		anyStarted = anyStarted || e.active()
	}
	if !anyStarted {
		return nil, c.attr(-1, fmt.Errorf("no engine has running threads"))
	}
	// A key is clock<<shift | index, so keys order as (clock, index)
	// pairs. To keep every key below math.MaxInt64, clocks are clamped
	// to clockMax and so is the budget: shared quanta and failures
	// happen below the budget, so their keys are exact, and a budget
	// beyond clockMax (2^60 - 2 cycles on a 6-engine chip, far more
	// than any run simulates) acts as clockMax.
	shift := uint(bits.Len(uint(len(c.Engines))))
	clockMax := int64(math.MaxInt64>>shift) - 1
	maxCycles = min(maxCycles, clockMax)
	key := func(i int, ev event) int64 {
		if ev == evDone {
			return math.MaxInt64
		}
		return min(c.Engines[i].clock, clockMax)<<shift | int64(i)
	}
	// pend[i] is why engine i's run-ahead last stopped.
	pend := make([]pending, len(c.Engines))
	for i, e := range c.Engines {
		pend[i].ev = evDone
		if e.active() {
			pend[i].ev, pend[i].err = e.runAhead(maxCycles, math.MinInt64)
		}
		pend[i].key = key(i, pend[i].ev)
	}
	for {
		// The smallest and second-smallest keys, in one pass.
		first, second := int64(math.MaxInt64), int64(math.MaxInt64)
		for i := range pend {
			k := pend[i].key
			second = min(second, max(first, k))
			first = min(first, k)
		}
		if first == math.MaxInt64 {
			break // all done
		}
		best := int(first & (1<<shift - 1))
		e, p := c.Engines[best], &pend[best]
		switch p.ev {
		case evBudget:
			return nil, c.attr(best, fmt.Errorf("cycle budget exhausted"))
		case evErr:
			return nil, c.attr(best, p.err)
		}
		// Engine best sorts before the runner-up (clock, index) while
		// its clock is below limit.
		limit := int64(math.MaxInt64)
		if second != math.MaxInt64 {
			limit = second >> shift
			if best < int(second&(1<<shift-1)) {
				limit++
			}
		}
		p.ev, p.err = e.runAhead(maxCycles, limit)
		p.key = key(best, p.ev)
	}
	// Aggregate statistics; the chip's cycle count is the slowest
	// engine's clock.
	total := &Stats{Results: make([][]uint32, 0, len(c.Engines)*c.Cfg.Threads)}
	for i, e := range c.Engines {
		if err := e.collect(total); err != nil {
			return nil, c.attr(i, err)
		}
	}
	return total, nil
}

// Seconds converts chip cycles to wall-clock seconds.
func (c *Chip) Seconds(cycles int64) float64 {
	return float64(cycles) / (c.Cfg.ClockMHz * 1e6)
}
