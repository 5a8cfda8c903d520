package ixp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
)

// TestBadRegisterIsRunError: an instruction naming a register outside
// the register file fails the run with a *RunError naming the engine,
// on a Machine and on a Chip, instead of panicking or aliasing the
// next bank.
func TestBadRegisterIsRunError(t *testing.T) {
	a0 := asm.Reg{Bank: core.A, Idx: 0}
	for _, tc := range []struct {
		name string
		in   asm.Instr
		want string
	}{
		{"read past the transfer bank", asm.Instr{Op: asm.OpRead, Space: cps.SpaceSRAM, Addr: asm.Imm(0), Base: 14, Count: 4}, "register L16 out of range"},
		{"alu destination", asm.Instr{Op: asm.OpAlu, Alu: ast.OpAdd, Dst: asm.Reg{Bank: core.A, Idx: 16}, L: asm.R(a0), R: asm.Imm(1)}, "register A16 out of range"},
		{"alu operand", asm.Instr{Op: asm.OpAlu, Alu: ast.OpAdd, Dst: a0, L: asm.R(asm.Reg{Bank: core.B, Idx: -1}), R: asm.Imm(1)}, "register B-1 out of range"},
		{"sdram write", asm.Instr{Op: asm.OpWrite, Space: cps.SpaceSDRAM, Addr: asm.Imm(0), Base: 8, Count: 9}, "register SD16 out of range"},
		{"tx write", asm.Instr{Op: asm.OpWrite, Space: cps.SpaceTFIFO, Addr: asm.Imm(0), Base: 15, Count: 2}, "register S16 out of range"},
		{"halt result", asm.Instr{Op: asm.OpHalt, Results: []asm.Operand{asm.R(asm.Reg{Bank: core.NumBanks, Idx: 0})}}, "register bank 8 out of range"},
	} {
		checkRunError(t, tc.name, []asm.Instr{tc.in, {Op: asm.OpHalt}}, "thread 1 pc 1: "+tc.want)
	}
}

// TestBadControlFlowIsRunError: a branch outside the program, and a
// thread running past its last instruction, fail the run like a bad
// register does.
func TestBadControlFlowIsRunError(t *testing.T) {
	checkRunError(t, "branch target", []asm.Instr{{Op: asm.OpJmp, Target: 5}}, "thread 1 pc 1: branch target 5 out of range")
	checkRunError(t, "no halt", nil, "thread 1 pc 1: ran past the end of the program")
}

// checkRunError runs an immediate followed by code on thread 1 of a
// Machine, then of engine 1 of a 2-engine Chip (the only engine
// started), and checks that each run fails with a *RunError naming
// that engine and containing want.
func checkRunError(t *testing.T, name string, code []asm.Instr, want string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 10
	cfg.SDRAMWords = 1 << 10
	cfg.Threads = 2
	prog := &asm.Program{Instrs: append([]asm.Instr{{Op: asm.OpImm, Dst: asm.Reg{Bank: core.A, Idx: 0}, Val: 7}}, code...)}
	check := func(what string, err error, engine int) {
		t.Helper()
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("%s, %s: error %v is not a *RunError", name, what, err)
		}
		if re.Engine != engine || !strings.Contains(err.Error(), want) {
			t.Errorf("%s, %s: got %v, want engine %d, %s", name, what, err, engine, want)
		}
	}

	m := New(cfg)
	m.Load(prog)
	if err := m.SetArgs(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run(1000)
	check("machine", err, 0)

	chip := NewChip(cfg, 2)
	chip.Load(prog)
	if err := chip.Engines[1].SetArgs(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, err = chip.Run(1000)
	check("chip", err, 1)
}

// TestSetArgsBadRegister: an entry register outside the register file
// is an error, not a panic.
func TestSetArgsBadRegister(t *testing.T) {
	m := New(DefaultConfig())
	err := m.SetArgs(0, []asm.Reg{{Bank: core.LD, Idx: 16}}, []uint32{1})
	if err == nil || !strings.Contains(err.Error(), "register LD16 out of range") {
		t.Fatalf("got %v, want an out-of-range register error", err)
	}
}

// TestConfigChangeBetweenLoads: the decoded program holds no Config
// field. Reloading the same program on a machine whose SRAMLatency,
// BranchPenalty or SwapCost changed gives the Stats of a fresh machine
// built with the new Config, and each change moves the cycle count.
func TestConfigChangeBetweenLoads(t *testing.T) {
	a0 := asm.Reg{Bank: core.A, Idx: 0} // loop count
	a1 := asm.Reg{Bank: core.A, Idx: 1} // SRAM address
	b0 := asm.Reg{Bank: core.B, Idx: 0} // sum
	l0 := asm.Reg{Bank: core.L, Idx: 0}
	// Sum n SRAM words at addr: a read, an add and a taken branch per
	// word, the threads swapping on every read.
	prog := &asm.Program{Instrs: []asm.Instr{
		{Op: asm.OpRead, Space: cps.SpaceSRAM, Addr: asm.R(a1), Base: 0, Count: 1},
		{Op: asm.OpAlu, Alu: ast.OpAdd, Dst: b0, L: asm.R(b0), R: asm.R(l0)},
		{Op: asm.OpAlu, Alu: ast.OpAdd, Dst: a1, L: asm.R(a1), R: asm.Imm(1)},
		{Op: asm.OpAlu, Alu: ast.OpSub, Dst: a0, L: asm.R(a0), R: asm.Imm(1)},
		{Op: asm.OpBr, Alu: ast.OpNe, L: asm.R(a0), R: asm.Imm(0), Target: 0},
		{Op: asm.OpHalt, Results: []asm.Operand{asm.R(b0)}},
	}}
	base := DefaultConfig()
	base.SRAMWords = 1 << 10
	base.SDRAMWords = 1 << 10
	run := func(m *Machine) *Stats {
		t.Helper()
		for i := range m.SRAM {
			m.SRAM[i] = uint32(i * 3)
		}
		m.Load(prog)
		for th := 0; th < m.Cfg.Threads; th++ {
			if err := m.SetArgs(th, []asm.Reg{a0, a1, b0}, []uint32{10, uint32(th * 16), 0}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := m.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for name, change := range map[string]func(*Config){
		"SRAMLatency":   func(c *Config) { c.SRAMLatency += 13 },
		"BranchPenalty": func(c *Config) { c.BranchPenalty += 3 },
		"SwapCost":      func(c *Config) { c.SwapCost += 2 },
	} {
		m := New(base)
		before := run(m)
		change(&m.Cfg)
		after := run(m)
		cfg := base
		change(&cfg)
		fresh := run(New(cfg))
		if !reflect.DeepEqual(after, fresh) {
			t.Errorf("%s: reloaded machine\n%+v\nfresh machine\n%+v", name, after, fresh)
		}
		if after.Cycles == before.Cycles {
			t.Errorf("%s: the change did not move the cycle count (%d)", name, after.Cycles)
		}
	}
}
