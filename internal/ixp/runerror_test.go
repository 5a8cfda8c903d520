package ixp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
)

// TestRunErrorAttribution: chip-level failures name the chip and the
// engine so concurrent fleet runners can attribute them.
func TestRunErrorAttribution(t *testing.T) {
	comp, _ := compileChipProgram(t)
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 12
	cfg.Threads = 2
	chip := NewChip(cfg, 3)
	chip.SetID(7)
	chip.Load(comp.Asm)
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	// Engine 2 thread 1 reads past the end of SRAM.
	for e := 0; e < 3; e++ {
		for th := 0; th < 2; th++ {
			base := uint32((e*2 + th) * 32)
			if e == 2 && th == 1 {
				base = uint32(cfg.SRAMWords)
			}
			if err := chip.Engines[e].SetArgs(th, regs, []uint32{base}); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, err = chip.Run(10_000_000)
	if err == nil {
		t.Fatal("expected out-of-range read to fail")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RunError", err)
	}
	if re.Chip != 7 || re.Engine != 2 {
		t.Fatalf("attribution chip %d engine %d, want chip 7 engine 2", re.Chip, re.Engine)
	}
	if !strings.Contains(err.Error(), "chip 7 engine 2") {
		t.Fatalf("message lacks attribution: %v", err)
	}
}

// TestRunErrorStandalone: a bare Machine attributes with engine only.
func TestRunErrorStandalone(t *testing.T) {
	m := New(DefaultConfig())
	_, err := m.Run(1000)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RunError", err)
	}
	if re.Chip != -1 {
		t.Fatalf("standalone machine claims chip %d", re.Chip)
	}
	if !strings.Contains(err.Error(), "engine 0") {
		t.Fatalf("message lacks engine attribution: %v", err)
	}
}

// TestRunErrorBudget: cycle-budget exhaustion on a chip names the
// engine the lockstep scheduler named: the one with the smallest
// (clock, index) once every engine's clock has reached the budget.
func TestRunErrorBudget(t *testing.T) {
	comp, _ := compileChipProgram(t)
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 12
	cfg.Threads = 2
	chip := NewChip(cfg, 2)
	chip.SetID(3)
	chip.Load(comp.Asm)
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		for th := 0; th < 2; th++ {
			if err := chip.Engines[e].SetArgs(th, regs, []uint32{uint32((e*2 + th) * 32)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, err = chip.Run(10) // far too small
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("budget error %v is not a *RunError", err)
	}
	if re.Chip != 3 || re.Engine != budgetEngine {
		t.Fatalf("attribution chip %d engine %d, want chip 3 engine %d", re.Chip, re.Engine, budgetEngine)
	}
}

// budgetEngine is the engine TestRunErrorBudget's run reports,
// recorded on the lockstep scheduler.
const budgetEngine = 0

// TestRunErrorOrder: errors are taken in (clock, engine) order even
// when an engine runs ahead. Engine 0 only does engine-local work and
// faults reading its RX FIFO past its end at cycle 3; engine 1 faults
// on an out-of-range SRAM read at cycle 1. Engine 1 is named.
func TestRunErrorOrder(t *testing.T) {
	a0 := asm.Reg{Bank: core.A, Idx: 0}
	a1 := asm.Reg{Bank: core.A, Idx: 1}
	prog := &asm.Program{Instrs: []asm.Instr{
		// Engine 0 (a0 == 0) branches to the FIFO read (cycles 0-2).
		{Op: asm.OpBr, Alu: ast.OpEq, L: asm.R(a0), R: asm.Imm(0), Target: 3},
		// Engine 1 reads SRAM at a1, past the end (cycle 1).
		{Op: asm.OpRead, Space: cps.SpaceSRAM, Addr: asm.R(a1), Base: 0, Count: 1},
		{Op: asm.OpHalt},
		// RX FIFO read with an empty FIFO (cycle 3).
		{Op: asm.OpRead, Space: cps.SpaceRFIFO, Addr: asm.Imm(0), Base: 0, Count: 1},
		{Op: asm.OpHalt},
	}}
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 10
	cfg.SDRAMWords = 1 << 10
	cfg.Threads = 1
	chip := NewChip(cfg, 2)
	chip.Load(prog)
	regs := []asm.Reg{a0, a1}
	if err := chip.Engines[0].SetArgs(0, regs, []uint32{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := chip.Engines[1].SetArgs(0, regs, []uint32{1, uint32(cfg.SRAMWords)}); err != nil {
		t.Fatal(err)
	}
	_, err := chip.Run(1000)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RunError", err)
	}
	if re.Engine != 1 || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("got %v, want engine 1's out-of-range SRAM read", err)
	}
}
