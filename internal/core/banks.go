// Package core implements the paper's primary contribution: optimal
// register-bank assignment, aggregate coloring, spilling, and clone
// management for the IXP1200 micro-engine, formulated as a 0-1 integer
// linear program (§5-§10 of the paper).
package core

import (
	"math/bits"
	"slices"

	"repro/internal/isel"
)

// Bank is one of the IXP register banks visible to the model (§5.2),
// plus the virtual constant bank C of the paper's §12 re-materialization
// extension.
type Bank int

// Banks. A and B are the general-purpose banks; M is on-chip scratch
// memory used as spill space; L and S are the SRAM-side read/write
// transfer banks; LD and SD the SDRAM-side ones; C is the virtual
// constant bank (re-materialization, optional).
const (
	A Bank = iota
	B
	M
	L
	LD
	S
	SD
	C
	NumBanks
)

var bankNames = [...]string{"A", "B", "M", "L", "LD", "S", "SD", "C"}

// String returns the bank's short name, as the paper writes it.
func (b Bank) String() string { return bankNames[b] }

// GBanks are the paper's GBank set; XBanks the transfer banks.
var (
	GBanks   = []Bank{A, B, M}
	XBanks   = []Bank{L, LD, S, SD}
	Readable = []Bank{A, B, L, LD} // legal ALU operand sources
	Writable = []Bank{A, B, S, SD} // legal ALU result destinations
)

// IsXfer reports whether b is a transfer bank (has colors 0..7).
func (b Bank) IsXfer() bool { return b == L || b == LD || b == S || b == SD }

// XRegs is the number of registers per transfer bank (paper §9:
// XRegs := 0..7).
const XRegs = 8

// KA and KB are the per-point capacities of the A and B banks: 16 each
// per thread, with one A register reserved for parallel-copy cycles
// during optimistic coalescing (§6).
const (
	KA = 15
	KB = 16
)

// Cost parameters of the objective function (§7).
const (
	MvC  = 1.0   // register-register move
	LdC  = 200.0 // load from spill memory
	StC  = 200.0 // store to spill memory
	Bias = 1.01  // slight preference of A over B (speeds up the solver)
)

// moveCost[b1][b2] is the weighted cost of relocating a value from b1
// to b2, composed from the primitive data paths of Figure 1:
//
//   - ALU copies (cost MvC) read from {A,B,L,LD} and write {A,B,S,SD};
//   - a scratch store (cost StC) moves S -> M; the model also allows
//     SD -> M at store cost (spill memory is abstract);
//   - a scratch load (cost LdC) moves M -> L (and M -> LD);
//   - the constant bank C loads into ALU-writable banks at the value's
//     immediate-load cost and discards for free (any -> C is 0 when
//     the temp is a constant; handled by the model builder).
//
// A value of -1 marks pairs with no physical path.
var moveCost [NumBanks][NumBanks]float64

// movePath[b1][b2] is the sequence of intermediate banks realizing the
// cheapest path (excluding endpoints).
var movePath [NumBanks][NumBanks][]Bank

func init() {
	// Primitive edges.
	const inf = 1e18
	var d [NumBanks][NumBanks]float64
	var via [NumBanks][NumBanks]int
	for i := range d {
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = inf
			}
			via[i][j] = -1
		}
	}
	edge := func(x, y Bank, c float64) {
		if c < d[x][y] {
			d[x][y] = c
		}
	}
	// ALU copies: any readable source to any writable destination.
	for _, src := range Readable {
		for _, dst := range Writable {
			if src != dst {
				edge(src, dst, MvC)
			}
		}
	}
	// Spill stores and loads through scratch.
	edge(S, M, StC)
	edge(SD, M, StC) // abstract spill memory; see package comment
	edge(M, L, LdC)
	edge(M, LD, LdC)
	// Floyd-Warshall for composite paths.
	for k := 0; k < int(NumBanks); k++ {
		for i := 0; i < int(NumBanks); i++ {
			for j := 0; j < int(NumBanks); j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
					via[i][j] = k
				}
			}
		}
	}
	var path func(i, j int) []Bank
	path = func(i, j int) []Bank {
		k := via[i][j]
		if k < 0 {
			return nil
		}
		out := append(path(i, k), Bank(k))
		return append(out, path(k, j)...)
	}
	for i := 0; i < int(NumBanks); i++ {
		for j := 0; j < int(NumBanks); j++ {
			if Bank(i) == C || Bank(j) == C {
				moveCost[i][j] = -1 // filled in per-temp by the builder
				continue
			}
			if d[i][j] >= inf {
				moveCost[i][j] = -1
				continue
			}
			moveCost[i][j] = d[i][j]
			if i != j {
				movePath[i][j] = path(i, j)
			}
		}
	}
}

// MoveCost returns the composed cost of a b1 -> b2 relocation, or
// -1 when physically impossible.
func MoveCost(b1, b2 Bank) float64 { return moveCost[b1][b2] }

// MovePath returns the intermediate banks of the cheapest b1 -> b2
// path (empty for a direct move).
func MovePath(b1, b2 Bank) []Bank { return movePath[b1][b2] }

// constCost is the C-bank cost model for a constant value v:
// discarding (x -> C) is free, materializing (C -> b) costs the
// immediate-load instruction count times MvC, for ALU-writable b.
func constCost(v uint32, from, to Bank) float64 {
	switch {
	case to == C:
		return 0
	case from == C:
		base := float64(isel.ImmCost(v)) * MvC
		switch to {
		case A, B, S, SD:
			return base
		case M:
			return base + StC
		case L:
			return base + StC + LdC
		default:
			return -1
		}
	}
	return -1
}

// bankSet is a small bitset over banks.
type bankSet uint16

func (s bankSet) has(b Bank) bool    { return s&(1<<uint(b)) != 0 }
func (s bankSet) add(b Bank) bankSet { return s | 1<<uint(b) }
func (s bankSet) del(b Bank) bankSet { return s &^ (1 << uint(b)) }

// banks lists the members of s in ascending order. The lists are
// shared and precomputed, so callers must not modify them.
func (s bankSet) banks() []Bank { return bankLists[s] }

// bankLists[s] is s.banks() for every set of the NumBanks banks.
var bankLists = func() (lists [1 << NumBanks][]Bank) {
	for s := range lists {
		for b := Bank(0); b < NumBanks; b++ {
			if bankSet(s).has(b) {
				lists[s] = append(lists[s], b)
			}
		}
		lists[s] = slices.Clip(lists[s])
	}
	return lists
}()

func (s bankSet) count() int { return bits.OnesCount16(uint16(s)) }

func (s bankSet) intersect(t bankSet) bankSet { return s & t }

func setOf(banks ...Bank) bankSet {
	var s bankSet
	for _, b := range banks {
		s = s.add(b)
	}
	return s
}

var (
	allBanksNoC = setOf(A, B, M, L, LD, S, SD)
	xferBanks   = setOf(XBanks...)
	anyBank     = bankSet(1<<NumBanks - 1)
)
