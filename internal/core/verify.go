package core

import (
	"fmt"
	"slices"

	"repro/internal/cps"
	"repro/internal/mir"
)

// Verify checks an allocation against the machine's rules,
// independently of the ILP: operand bank classes, ALU operand pairing,
// bank capacities, distinct colors within transfer banks, aggregate
// adjacency, same-register couplings, and move-path legality. It is
// the safety net for the whole model: any violation is a bug in the
// model builder or solver.
func Verify(res *Result) error {
	g := res.graph
	mp := g.mp
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	bankAt := func(v mir.Temp, p pointID) Bank {
		b, ok := res.BankAt(v, int(p))
		if !ok {
			bad("temp %s has no bank at %s", mp.TempName(v), g.pointName(p))
			return -1
		}
		return b
	}
	in := func(b Bank, set []Bank) bool {
		for _, x := range set {
			if x == b {
				return true
			}
		}
		return false
	}
	colorOf := func(v mir.Temp, b Bank) int {
		if c, ok := res.ColorOf(v, b); ok {
			return c
		}
		bad("temp %s has no color in %v", mp.TempName(v), b)
		return -1
	}

	// checkPair checks the one or two operands an instruction or
	// branch compare reads at point at.
	checkPair := func(ops []mir.Operand, at pointID, what string) {
		var regs [2]Bank
		var temps [2]mir.Temp
		n := 0
		for _, o := range ops {
			if o.IsImm {
				continue
			}
			bk := bankAt(o.Temp, at)
			if bk < 0 {
				continue
			}
			if !in(bk, Readable) {
				bad("%s %s: operand %s in unreadable bank %v", g.pointName(at), what, mp.TempName(o.Temp), bk)
			}
			regs[n], temps[n] = bk, o.Temp
			n++
		}
		if n == 2 {
			if regs[0] == regs[1] && (regs[0] == A || regs[0] == B) {
				bad("%s %s: both operands (%s, %s) in bank %v", g.pointName(at), what,
					mp.TempName(temps[0]), mp.TempName(temps[1]), regs[0])
			}
			xfer := 0
			for _, r := range regs {
				if r == L || r == LD {
					xfer++
				}
			}
			if xfer > 1 {
				bad("%s %s: both operands from transfer banks (%v, %v)", g.pointName(at), what, regs[0], regs[1])
			}
		}
	}

	for _, b := range mp.Blocks {
		pt := func(idx int) pointID { return g.entry[b.ID] + pointID(idx) }

		for i := range b.Instrs {
			in2 := &b.Instrs[i]
			at := pt(i)
			after := pt(i + 1)
			switch in2.Kind {
			case mir.KALU:
				checkPair(in2.Srcs, at, "alu")
				if db, ok := res.BankBefore(in2.Dsts[0], int(after)); ok {
					if !in(db, Writable) {
						bad("b%d/%d alu result %s arrives in %v", b.ID, i, mp.TempName(in2.Dsts[0]), db)
					}
				}
			case mir.KImm:
				if db, ok := res.BankBefore(in2.Dsts[0], int(after)); ok {
					okArr := in(db, Writable) || (g.opts.Remat && db == C)
					if !okArr {
						bad("b%d/%d imm result %s arrives in %v", b.ID, i, mp.TempName(in2.Dsts[0]), db)
					}
				}
			case mir.KMemRead:
				checkPair(in2.Srcs[:1], at, "read addr")
				want := readBank(in2.Space)
				prev := -1
				for k, d := range in2.Dsts {
					if db, ok := res.BankBefore(d, int(after)); ok && db != want {
						bad("b%d/%d read dst %s arrives in %v, want %v", b.ID, i, mp.TempName(d), db, want)
					}
					c := colorOf(d, want)
					if k > 0 && c != prev+1 {
						bad("b%d/%d aggregate not adjacent: %s color %d after %d",
							b.ID, i, mp.TempName(d), c, prev)
					}
					prev = c
				}
			case mir.KMemWrite:
				checkPair(in2.Srcs[:1], at, "write addr")
				want := writeBank(in2.Space)
				prev := -1
				for k, s := range in2.Srcs[1:] {
					bk := bankAt(s.Temp, at)
					if bk >= 0 && bk != want {
						bad("b%d/%d write src %s in %v, want %v", b.ID, i, mp.TempName(s.Temp), bk, want)
					}
					c := colorOf(s.Temp, want)
					if k > 0 && c != prev+1 {
						bad("b%d/%d write aggregate not adjacent at %s", b.ID, i, mp.TempName(s.Temp))
					}
					prev = c
				}
			case mir.KSpecial:
				switch in2.Special {
				case cps.SpecHash:
					if bk := bankAt(in2.Srcs[0].Temp, at); bk >= 0 && bk != S {
						bad("b%d/%d hash src in %v, want S", b.ID, i, bk)
					}
					if colorOf(in2.Dsts[0], L) != colorOf(in2.Srcs[0].Temp, S) {
						bad("b%d/%d hash same-register violated", b.ID, i)
					}
				case cps.SpecBTS:
					checkPair(in2.Srcs[:1], at, "bts addr")
					if bk := bankAt(in2.Srcs[1].Temp, at); bk >= 0 && bk != S {
						bad("b%d/%d bts src in %v, want S", b.ID, i, bk)
					}
					if colorOf(in2.Dsts[0], L) != colorOf(in2.Srcs[1].Temp, S) {
						bad("b%d/%d bts same-register violated", b.ID, i)
					}
				case cps.SpecCSRRead:
					checkPair(in2.Srcs[:1], at, "csr addr")
				case cps.SpecCSRWrite:
					checkPair(in2.Srcs[:1], at, "csr addr")
					if bk := bankAt(in2.Srcs[1].Temp, at); bk >= 0 && bk != S {
						bad("b%d/%d csr write src in %v, want S", b.ID, i, bk)
					}
				}
			case mir.KClone:
				// The clone must begin where its source is.
				db, ok1 := res.BankBefore(in2.Dsts[0], int(after))
				sb, ok2 := res.BankAt(in2.Srcs[0].Temp, int(at))
				if ok1 && ok2 && db != sb {
					bad("b%d/%d clone %s starts in %v but source %s is in %v", b.ID, i,
						mp.TempName(in2.Dsts[0]), db, mp.TempName(in2.Srcs[0].Temp), sb)
				}
			}
		}
		switch t := b.Term.(type) {
		case *mir.Branch:
			checkPair([]mir.Operand{t.L, t.R}, pt(len(b.Instrs)), "branch")
		case *mir.Halt:
			for _, r := range t.Results {
				if r.IsImm {
					continue
				}
				if bk := bankAt(r.Temp, pt(len(b.Instrs))); bk >= 0 && !in(bk, Readable) {
					bad("halt result %s in unreadable bank %v", mp.TempName(r.Temp), bk)
				}
			}
		}
	}

	// Capacity and color-conflict checks per point.
	var count [NumBanks][]int
	var colorUse [NumBanks][XRegs][]mir.Temp
	for pp := range pointID(g.npoints) {
		for _, list := range [][]locEntry{g.beforeLocs[pp], g.afterLocs[pp]} {
			for bk := range count {
				count[bk] = count[bk][:0]
				for c := range colorUse[bk] {
					colorUse[bk][c] = colorUse[bk][c][:0]
				}
			}
			for _, le := range list {
				root := g.find(le.loc)
				bk := res.bankOf[root]
				// Clone sets share a register when co-resident, so they
				// count once (§10); every other live temp needs its own.
				key := int(le.v)
				if set := g.cloneSet[le.v]; set >= 0 {
					key = -(set + 1)
				}
				count[bk] = append(count[bk], key)
				if bk.IsXfer() {
					c, ok := res.ColorOf(le.v, bk)
					if !ok {
						bad("%s: %s in %v without color", g.pointName(pp), mp.TempName(le.v), bk)
						continue
					}
					colorUse[bk][c] = append(colorUse[bk][c], le.v)
				}
			}
			if n := distinct(count[A]); n > KA {
				bad("%s: %d webs in A exceeds capacity", g.pointName(pp), n)
			}
			if n := distinct(count[B]); n > KB {
				bad("%s: %d webs in B exceeds capacity", g.pointName(pp), n)
			}
			for bk, regs := range colorUse {
				for c, temps := range regs {
					// Distinct temps sharing a register must be clones
					// of each other or the same web.
					for i := 0; i < len(temps); i++ {
						for j := i + 1; j < len(temps); j++ {
							v1, v2 := temps[i], temps[j]
							if v1 == v2 {
								continue
							}
							if g.cloneSet[v1] >= 0 && g.cloneSet[v1] == g.cloneSet[v2] {
								continue
							}
							bad("%s: %s and %s share %v register %d", g.pointName(pp),
								mp.TempName(v1), mp.TempName(v2), Bank(bk), c)
						}
					}
				}
			}
		}
	}

	// Move-path legality.
	for _, m := range res.Moves {
		var c float64
		if m.From == C || m.To == C {
			c = constCost(g.constVal[m.V], m.From, m.To)
		} else {
			c = MoveCost(m.From, m.To)
		}
		if c < 0 {
			bad("illegal move %s: %v -> %v", mp.TempName(m.V), m.From, m.To)
		}
	}

	if len(errs) > 0 {
		msg := ""
		for i, e := range errs {
			if i >= 20 {
				msg += fmt.Sprintf("\n... and %d more", len(errs)-20)
				break
			}
			if i > 0 {
				msg += "\n"
			}
			msg += e.Error()
		}
		return fmt.Errorf("core verify: %d violations:\n%s", len(errs), msg)
	}
	return nil
}

// distinct counts the distinct values in keys, sorting keys.
func distinct(keys []int) int {
	slices.Sort(keys)
	return len(slices.Compact(keys))
}
