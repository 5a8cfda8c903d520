package core

import (
	"fmt"
	"slices"

	"repro/internal/mir"
	"repro/internal/model"
)

// ilp holds the model under construction together with the column
// tables needed to read the solution back.
type ilp struct {
	g *graph
	m *model.Model

	// roots lists the location webs in the order their columns were
	// made. posCol[r][b] is the column of pos[r, b] for web root r, or
	// -1 when b is not allowed there.
	roots  []locID
	posCol [][NumBanks]int

	// colorVars lists the (temp, transfer bank) color variables, temps
	// ascending, then banks; colorVarOf[v][b] is the id of v's variable
	// in bank b, or -1 when v may not occupy b.
	colorVars  []colorVar
	colorVarOf [][NumBanks]int

	// arcsAt[p] lists the move arcs at point p for the spill machinery.
	arcsAt [][]int

	// Auxiliary-column bookkeeping for the completion heuristic: every
	// derived column together with the columns that determine it.
	moveCols [][]moveCol // per arc: its transition columns, if any
	maxCols  []maxCol    // col = max(of) for clone/spill vars
	occCols  []occCol    // col = max over pairs of pos+color-1

	// objConst is the cost of moves fixed by pinned-bank arcs; it is
	// not part of the LP objective but is added back when reporting.
	objConst float64
}

// colorVar is the register number of temp v in transfer bank bank:
// the 0-1 columns col+r, one per register r < XRegs.
type colorVar struct {
	v    mir.Temp
	bank Bank
	col  int
}

// moveCol is an arc's continuous transition column from b1 to b2.
type moveCol struct {
	b1, b2 Bank
	col    int
}

// noBanks is a bank-indexed table row with no entries.
var noBanks = [NumBanks]int{-1, -1, -1, -1, -1, -1, -1, -1}

// maxCol records a derived 0-1 column whose value is the maximum of
// other columns (cloneMove, cloneBefore, needsSpill).
type maxCol struct {
	col int
	of  []int
}

// occCol records an occupancy column: max over (pos, color) pairs of
// pos + color - 1.
type occCol struct {
	col   int
	pairs [][2]int
}

// buildModel translates the program graph into the 0-1 ILP of §5-§10.
func buildModel(g *graph) (*ilp, error) {
	il := &ilp{g: g, m: model.New()}
	if err := il.propagatePaths(); err != nil {
		return nil, err
	}
	if err := il.positions(); err != nil {
		return nil, err
	}
	il.moves()
	il.capacity()
	il.colors()
	il.spillRegs()
	return il, nil
}

// propagatePaths narrows web bank sets to a fixpoint: when one end of
// an arc is pinned to a single bank, the other end can only use banks
// reachable from (or able to reach) it. Afterwards every remaining
// (b1, b2) combination across an arc has a physical path, so arcs with
// a pinned side need no Move variables at all — their cost lands
// directly on the other side's position variables. This is the main
// model-size reduction in the spirit of §8.
func (il *ilp) propagatePaths() error {
	g := il.g
	pathOK := func(v mir.Temp, b1, b2 Bank) bool { return il.arcCost(v, b1, b2) >= 0 }
	for changed := true; changed; {
		changed = false
		for _, a := range g.arcs {
			from, to := g.find(a.from), g.find(a.to)
			if from == to {
				continue
			}
			fa, ta := g.locAllow[from], g.locAllow[to]
			if fa.count() == 1 {
				b1 := fa.banks()[0]
				nt := ta
				for _, b2 := range ta.banks() {
					if !pathOK(a.v, b1, b2) {
						nt = nt.del(b2)
					}
				}
				if nt != ta {
					if nt == 0 {
						return fmt.Errorf("core: no bank of %s is reachable from %v",
							g.mp.TempName(a.v), b1)
					}
					g.locAllow[to] = nt
					changed = true
				}
			}
			if ta.count() == 1 {
				b2 := ta.banks()[0]
				nf := fa
				for _, b1 := range fa.banks() {
					if !pathOK(a.v, b1, b2) {
						nf = nf.del(b1)
					}
				}
				if nf != fa {
					if nf == 0 {
						return fmt.Errorf("core: no bank of %s can reach %v",
							g.mp.TempName(a.v), b2)
					}
					g.locAllow[from] = nf
					changed = true
				}
			}
		}
	}
	return nil
}

// positions creates the location (bank-residency) variables: one 0-1
// variable per (web, allowed bank) with the §6 "in one place only"
// constraint.
func (il *ilp) positions() error {
	g := il.g
	il.posCol = make([][NumBanks]int, len(g.locTemp))
	for l := range il.posCol {
		il.posCol[l] = noBanks
	}
	for l := range g.locTemp {
		r := g.find(locID(l))
		if il.posCol[r] != noBanks {
			continue // the web's columns exist
		}
		il.roots = append(il.roots, r)
		allow := g.locAllow[r]
		if allow == 0 {
			return fmt.Errorf("core: location web of %s has no feasible bank (conflicting operand constraints)",
				g.mp.TempName(g.locTemp[r]))
		}
		for _, b := range allow.banks() {
			col := il.m.Binary()
			il.posCol[r][b] = col
			il.m.Term(1, col)
			// Symmetry breaking in the spirit of the paper's §7 bias:
			// an epsilon preference of A over B keeps the LP vertices
			// integral instead of splitting ties fractionally. The
			// epsilon is far below the 0.01% optimality gap.
			if il.g.opts.BiasAB && b == B {
				il.m.ObjAdd(col, 1e-6)
			}
		}
		il.m.Eq(1) // one place only
	}
	return nil
}

// pos returns the column of pos[root(l), b], or -1 when b is not
// allowed there.
func (il *ilp) pos(l locID, b Bank) int {
	return il.posCol[il.g.find(l)][b]
}

// colorCol returns the column of Color[v, b, 0], or -1 when v has no
// color variable in b. Color[v, b, r] is that column plus r.
func (il *ilp) colorCol(v mir.Temp, b Bank) int {
	if id := il.colorVarOf[v][b]; id >= 0 {
		return il.colorVars[id].col
	}
	return -1
}

// moves creates the per-arc transition variables with flow-conservation
// rows tying them to the endpoint positions (the paper's Move/Before/
// After linkage, §5.2/§6), and charges the weighted objective (§7).
// Clone-set moves at the same point are counted once (§10).
func (il *ilp) moves() {
	g := il.g
	// arcsAt's lists share one backing array, one span per point.
	il.arcsAt = make([][]int, g.npoints)
	perPoint := make([]int, g.npoints)
	for _, a := range g.arcs {
		perPoint[a.point]++
	}
	backing, off := make([]int, len(g.arcs)), 0
	for p, n := range perPoint {
		il.arcsAt[p] = backing[off : off : off+n]
		off += n
	}
	for i, a := range g.arcs {
		il.arcsAt[a.point] = append(il.arcsAt[a.point], i)
	}
	il.moveCols = make([][]moveCol, len(g.arcs))
	// The arcs of one clone set at one point form a group, named by
	// its first arc: group[i] is that arc, or -1 when i is alone.
	group := make([]int, len(g.arcs))
	for i, a := range g.arcs {
		group[i] = -1
		set := g.cloneSet[a.v]
		if set < 0 {
			continue
		}
		n := 0
		for _, j := range il.arcsAt[a.point] {
			if g.cloneSet[g.arcs[j].v] == set {
				if n == 0 {
					group[i] = j
				}
				n++
			}
		}
		if n == 1 {
			group[i] = -1
		}
	}
	// groupMoves[first arc] lists the group's cloneMove columns, one
	// per bank pair, each an index into il.maxCols.
	type cloneMove struct {
		b1, b2 Bank
		max    int
	}
	groupMoves := make([][]cloneMove, len(g.arcs))
	// pvsBuf backs every arc's moveCols span: at most one column per
	// bank pair of each arc that takes the full flow formulation below.
	size := 0
	for i, a := range g.arcs {
		from, to := g.find(a.from), g.find(a.to)
		nf, nt := g.locAllow[from].count(), g.locAllow[to].count()
		if from != to && (group[i] >= 0 || nf > 1 && nt > 1) {
			size += nf * nt
		}
	}
	pvsBuf := make([]moveCol, 0, size)

	biased := func(c float64, b1 Bank) float64 {
		if il.g.opts.BiasAB && b1 == B {
			return c * Bias
		}
		return c
	}
	for i, a := range g.arcs {
		from, to := g.find(a.from), g.find(a.to)
		if from == to {
			continue // unified: bank cannot change across this arc
		}
		fa, ta := g.locAllow[from], g.locAllow[to]
		w := g.weight[a.point]
		gi := group[i]
		// Substituted forms: when either side is pinned to one bank,
		// the move cost is a linear function of the other side's
		// position variables — no Move columns or flow rows needed.
		// (propagatePaths guarantees every remaining pair has a path.)
		if gi < 0 {
			switch {
			case fa.count() == 1 && ta.count() == 1:
				b1, b2 := fa.banks()[0], ta.banks()[0]
				il.objConst += w * biased(il.arcCost(a.v, b1, b2), b1)
				continue
			case fa.count() == 1:
				b1 := fa.banks()[0]
				for _, b2 := range ta.banks() {
					if c := il.arcCost(a.v, b1, b2); c > 0 {
						il.m.ObjAdd(il.pos(to, b2), w*biased(c, b1))
					}
				}
				continue
			case ta.count() == 1:
				b2 := ta.banks()[0]
				for _, b1 := range fa.banks() {
					if c := il.arcCost(a.v, b1, b2); c > 0 {
						il.m.ObjAdd(il.pos(from, b1), w*biased(c, b1))
					}
				}
				continue
			}
		}
		// Full flow formulation. The transition variables are
		// continuous: integrality follows from the endpoint positions
		// being 0-1.
		start := len(pvsBuf)
		for _, b1 := range fa.banks() {
			for _, b2 := range ta.banks() {
				c := il.arcCost(a.v, b1, b2)
				if c < 0 {
					continue // no physical path
				}
				col := il.m.Continuous(0, 1)
				pvsBuf = append(pvsBuf, moveCol{b1, b2, col})
				if c == 0 {
					continue
				}
				cost := w * biased(c, b1)
				if gi < 0 {
					il.m.ObjAdd(col, cost)
					continue
				}
				// Clone counting: charge the group variable instead.
				k := slices.IndexFunc(groupMoves[gi], func(cm cloneMove) bool {
					return cm.b1 == b1 && cm.b2 == b2
				})
				if k < 0 {
					cm := il.m.Continuous(0, 1)
					il.m.ObjAdd(cm, cost)
					k = len(groupMoves[gi])
					groupMoves[gi] = append(groupMoves[gi], cloneMove{b1, b2, len(il.maxCols)})
					il.maxCols = append(il.maxCols, maxCol{col: cm})
				}
				// clone move: cm >= move member
				mc := &il.maxCols[groupMoves[gi][k].max]
				il.m.Term(1, mc.col).Term(-1, col).Ge(0)
				mc.of = append(mc.of, col)
			}
		}
		pvs := pvsBuf[start:len(pvsBuf):len(pvsBuf)]
		il.moveCols[i] = pvs
		// Flow conservation.
		for _, b1 := range fa.banks() {
			for _, p := range pvs {
				if p.b1 == b1 {
					il.m.Term(1, p.col)
				}
			}
			il.m.Term(-1, il.pos(from, b1)).Eq(0) // moves out of b1 = pos[from, b1]
		}
		for _, b2 := range ta.banks() {
			for _, p := range pvs {
				if p.b2 == b2 {
					il.m.Term(1, p.col)
				}
			}
			il.m.Term(-1, il.pos(to, b2)).Eq(0) // moves into b2 = pos[to, b2]
		}
	}
	// Arith operand pairing (§6): two sources cannot share A, B, and at
	// most one may come from the transfer banks L ∪ LD.
	xfer := make([]int, 0, 4) // a pair's L and LD position columns
	for _, pr := range il.g.pairs {
		for _, b := range []Bank{A, B} {
			x, y := il.pos(pr.x, b), il.pos(pr.y, b)
			if x >= 0 && y >= 0 {
				il.m.Term(1, x).Term(1, y).Le(1)
			}
		}
		xfer = xfer[:0]
		for _, b := range []Bank{L, LD} {
			if x := il.pos(pr.x, b); x >= 0 {
				xfer = append(xfer, x)
			}
			if y := il.pos(pr.y, b); y >= 0 {
				xfer = append(xfer, y)
			}
		}
		if len(xfer) > 1 {
			for _, col := range xfer {
				il.m.Term(1, col)
			}
			il.m.Le(1)
		}
	}
}

// moveIndicator returns a 0-1 column that is 1 exactly when arc ai
// transitions b1 -> b2: a Move column for flow arcs, or the relevant
// position column when one side is pinned. The second result is false
// when the transition is impossible (or trivially certain — the
// needsSpill machinery is conservative either way).
func (il *ilp) moveIndicator(ai int, b1, b2 Bank) (int, bool) {
	if cols := il.moveCols[ai]; cols != nil {
		for _, mc := range cols {
			if mc.b1 == b1 && mc.b2 == b2 {
				return mc.col, true
			}
		}
		return 0, false
	}
	g := il.g
	a := g.arcs[ai]
	from, to := g.find(a.from), g.find(a.to)
	fa, ta := g.locAllow[from], g.locAllow[to]
	if !fa.has(b1) || !ta.has(b2) {
		return 0, false
	}
	switch {
	case fa.count() == 1 && ta.count() == 1:
		return 0, false // fixed; conservatively ignored (no spill traffic in practice)
	case fa.count() == 1:
		return il.pos(to, b2), true
	case ta.count() == 1:
		return il.pos(from, b1), true
	}
	return 0, false
}

// arcCost returns the cost of relocating v from b1 to b2, handling the
// virtual constant bank.
func (il *ilp) arcCost(v mir.Temp, b1, b2 Bank) float64 {
	if b1 == C || b2 == C {
		if !il.g.isConst[v] {
			return -1
		}
		if b1 == b2 {
			return 0
		}
		return constCost(il.g.constVal[v], b1, b2)
	}
	return MoveCost(b1, b2)
}

// capacity emits the §6 K constraints for the A and B banks, before
// and after every point, counting one representative per clone set
// (§10).
func (il *ilp) capacity() {
	g := il.g
	// reps lists the clone sets met in the current row, each with its
	// representative column's index into il.maxCols.
	type setRep struct{ set, max int }
	var reps []setRep
	// The row's terms are gathered first: the clone-count rows go in
	// while they are met, before the row itself.
	var terms []int
	for p := 0; p < g.npoints; p++ {
		for _, list := range [][]locEntry{g.beforeLocs[p], g.afterLocs[p]} {
			for _, bank := range []Bank{A, B} {
				k := KA
				if bank == B {
					k = KB
				}
				if len(list) <= k {
					continue // cannot bind
				}
				terms = terms[:0]
				reps = reps[:0]
				for _, le := range list {
					col := il.pos(le.loc, bank)
					if col < 0 {
						continue
					}
					if set := g.cloneSet[le.v]; set >= 0 {
						i := slices.IndexFunc(reps, func(r setRep) bool { return r.set == set })
						if i < 0 {
							rep := il.m.Continuous(0, 1)
							terms = append(terms, rep)
							i = len(reps)
							reps = append(reps, setRep{set, len(il.maxCols)})
							il.maxCols = append(il.maxCols, maxCol{col: rep})
						}
						// clone count: rep >= pos of each member
						mc := &il.maxCols[reps[i].max]
						il.m.Term(1, mc.col).Term(-1, col).Ge(0)
						mc.of = append(mc.of, col)
						continue
					}
					terms = append(terms, col)
				}
				if len(terms) > k {
					for _, col := range terms {
						il.m.Term(1, col)
					}
					il.m.Le(float64(k)) // K_A or K_B
				}
			}
		}
	}
}

// colors emits the §9 machinery: per-temp per-transfer-bank color
// variables, interference disequalities, aggregate adjacency with
// boundary cuts, same-register couplings, and clone color links (§10).
func (il *ilp) colors() {
	g := il.g
	// mayColor[v] = transfer banks v may occupy (colors exist there).
	mayColor := make([]bankSet, g.mp.NumTemps())
	for l, v := range g.locTemp {
		mayColor[v] |= g.locAllow[g.find(locID(l))].intersect(xferBanks)
	}
	// One color per (temp, bank), numbered temps ascending, then banks.
	il.colorVarOf = make([][NumBanks]int, len(mayColor))
	for v, banks := range mayColor {
		il.colorVarOf[v] = noBanks
		for _, b := range banks.banks() {
			il.colorVarOf[v][b] = len(il.colorVars)
			cv := colorVar{v: mir.Temp(v), bank: b, col: il.m.Binary()}
			il.m.Term(1, cv.col)
			for r := 1; r < XRegs; r++ {
				il.m.Term(1, il.m.Binary()) // column cv.col+r
			}
			il.m.Eq(1) // one color per (temp, bank)
			il.colorVars = append(il.colorVars, cv)
		}
	}
	// Interference: temps simultaneously live in the same transfer bank
	// must not share a color — unless they are clones of each other
	// (§10: clones do not interfere).
	seenPair := map[[3]int]bool{}
	for p := 0; p < g.npoints; p++ {
		for _, list := range [][]locEntry{g.beforeLocs[p], g.afterLocs[p]} {
			for i := 0; i < len(list); i++ {
				for j := i + 1; j < len(list); j++ {
					v1, v2 := list[i].v, list[j].v
					if v1 == v2 {
						continue
					}
					if g.cloneSet[v1] >= 0 && g.cloneSet[v1] == g.cloneSet[v2] {
						continue
					}
					l1, l2 := g.find(list[i].loc), g.find(list[j].loc)
					if l1 == l2 {
						continue // same web: same register, same value
					}
					for _, b := range mayColor[v1].intersect(mayColor[v2]).banks() {
						p1, p2 := il.pos(l1, b), il.pos(l2, b)
						if p1 < 0 || p2 < 0 {
							continue
						}
						key := [3]int{int(l1)*1000003 + int(l2), int(v1)*1000003 + int(v2), int(b)}
						if seenPair[key] {
							continue
						}
						seenPair[key] = true
						c1, c2 := il.colorCol(v1, b), il.colorCol(v2, b)
						for r := 0; r < XRegs; r++ {
							il.m.Term(1, p1).Term(1, p2).Term(1, c1+r).Term(1, c2+r).Le(3)
						}
					}
				}
			}
		}
	}
	// Aggregate adjacency (§9): consecutive members occupy consecutive
	// registers, with boundary zeros; optional redundant upper cuts.
	for _, agg := range g.aggs {
		n := len(agg.temps)
		if n == 1 {
			continue
		}
		b := agg.bank
		for k := 0; k+1 < n; k++ {
			ck, ck1 := il.colorCol(agg.temps[k], b), il.colorCol(agg.temps[k+1], b)
			for r := 0; r+1 < XRegs; r++ {
				il.m.Term(1, ck+r).Term(-1, ck1+r+1).Eq(0)
			}
			// Boundary: a later member cannot sit in register 0.
			il.m.Term(1, ck1).Eq(0)
		}
		if g.opts.RedundantAggregate {
			// §9: "the first temporary in an aggregate of three cannot
			// possibly have colors 6 or 7" — and in general member j of
			// an aggregate of n is confined to j .. j+(8-n).
			for j, v := range agg.temps {
				c := il.colorCol(v, b)
				for r := 0; r < XRegs; r++ {
					if r >= j && r <= j+(XRegs-n) {
						continue
					}
					il.m.Term(1, c+r).Eq(0)
				}
			}
		}
	}
	// Same-register couplings (hash, bit-test-set; §9).
	for _, sr := range g.sameRegs {
		d, s := il.colorCol(sr.dst, sr.dstBank), il.colorCol(sr.src, sr.srcBank)
		if d < 0 || s < 0 {
			continue
		}
		for r := 0; r < XRegs; r++ {
			il.m.Term(1, d+r).Term(-1, s+r).Eq(0)
		}
	}
	// Rename color links: a jump argument and the block parameter it
	// feeds occupy the same location at the edge; if that location is
	// a transfer bank, their register numbers must agree (transfer
	// registers cannot be copied at a block boundary without an ALU
	// move, which the model would have to pay for explicitly).
	for _, rn := range g.renames {
		root := g.find(rn.paramLoc)
		for _, b := range g.locAllow[root].banks() {
			if !b.IsXfer() {
				continue
			}
			pcol := il.pos(rn.paramLoc, b)
			if pcol < 0 {
				continue
			}
			ca, cp := il.colorCol(rn.arg, b), il.colorCol(rn.param, b)
			if ca < 0 || cp < 0 {
				continue
			}
			for r := 0; r < XRegs; r++ {
				il.m.Term(1, ca+r).Term(-1, cp+r).Term(1, pcol).Le(1)
				il.m.Term(-1, ca+r).Term(1, cp+r).Term(1, pcol).Le(1)
			}
		}
	}
	// Clone color links (§10): immediately after the clone, original
	// and clone share bank and color; if that bank is a transfer bank,
	// their colors there must agree.
	for _, cl := range g.cloneLinks {
		root := g.find(cl.dLoc)
		for _, b := range g.locAllow[root].banks() {
			if !b.IsXfer() {
				continue
			}
			pcol := il.pos(cl.dLoc, b)
			if pcol < 0 {
				continue
			}
			cd, cs := il.colorCol(cl.d, b), il.colorCol(cl.s, b)
			if cd < 0 || cs < 0 {
				continue
			}
			for r := 0; r < XRegs; r++ {
				// pos[b] = 1 -> Color[d,b,r] = Color[s,b,r]:
				// |cd - cs| <= 1 - pos[b].
				il.m.Term(1, cd+r).Term(-1, cs+r).Term(1, pcol).Le(1)
				il.m.Term(-1, cd+r).Term(1, cs+r).Term(1, pcol).Le(1)
			}
		}
	}
}

// spillRegs emits the §9 "K and spilling for transfer banks"
// machinery, only at points where a spill move is possible: spills
// into M pass through an S register, reloads from M pass through L, so
// a spare register must exist there.
func (il *ilp) spillRegs() {
	g := il.g
	// A web root r is marked in the current pass when mark[r] == pass.
	mark := make([]int, len(g.locTemp))
	pass := 0
	for p := 0; p < g.npoints; p++ {
		arcIdxs := il.arcsAt[p]
		if len(arcIdxs) == 0 {
			continue
		}
		// A spare register can only be missing when the bank may
		// actually fill: count the webs that could occupy it here.
		var full [NumBanks]bool
		for _, bank := range []Bank{L, S} {
			pass++
			webs := 0
			for _, list := range [][]locEntry{g.beforeLocs[p], g.afterLocs[p]} {
				for _, le := range list {
					root := g.find(le.loc)
					if g.locAllow[root].has(bank) && mark[root] != pass {
						mark[root] = pass
						webs++
					}
				}
			}
			full[bank] = webs >= XRegs
		}
		if !full[L] && !full[S] {
			continue
		}
		// Moves through S: x -> M with x in {A, B, L} (path via S).
		// Moves through L: M -> x with x in {A, B, S}.
		var viaS, viaL []int // indicator columns
		for _, ai := range arcIdxs {
			a := g.arcs[ai]
			from, to := g.find(a.from), g.find(a.to)
			if from == to {
				continue
			}
			for _, b1 := range g.locAllow[from].banks() {
				for _, b2 := range g.locAllow[to].banks() {
					col, ok := il.moveIndicator(ai, b1, b2)
					if !ok {
						continue
					}
					if b2 == M && (b1 == A || b1 == B || b1 == L) {
						viaS = append(viaS, col)
					}
					if b1 == M && (b2 == A || b2 == B || b2 == S) {
						viaL = append(viaL, col)
					}
				}
			}
		}
		for _, tb := range []struct {
			bank Bank
			cols []int
		}{{S, viaS}, {L, viaL}} {
			if len(tb.cols) == 0 || !full[tb.bank] {
				continue
			}
			ns := il.m.Continuous(0, 1)
			for _, col := range tb.cols { // needsSpill >= every spill move
				il.m.Term(1, ns).Term(-1, col).Ge(0)
			}
			il.maxCols = append(il.maxCols, maxCol{col: ns, of: append([]int(nil), tb.cols...)})
			// Occupancy of the bank at p: occupied[r] >= pos + color - 1.
			occ := make([]int, XRegs)
			occPairs := make([][][2]int, XRegs)
			for r := range occ {
				occ[r] = il.m.Continuous(0, 1)
			}
			pass++
			for _, list := range [][]locEntry{g.beforeLocs[p], g.afterLocs[p]} {
				for _, le := range list {
					root := g.find(le.loc)
					if mark[root] == pass {
						continue
					}
					mark[root] = pass
					pcol := il.pos(le.loc, tb.bank)
					if pcol < 0 {
						continue
					}
					ccol := il.colorCol(le.v, tb.bank)
					if ccol < 0 {
						continue
					}
					for r := 0; r < XRegs; r++ {
						il.m.Term(1, occ[r]).Term(-1, pcol).Term(-1, ccol+r).Ge(-1)
						occPairs[r] = append(occPairs[r], [2]int{pcol, ccol + r})
					}
				}
			}
			for r := range occ {
				il.occCols = append(il.occCols, occCol{col: occ[r], pairs: occPairs[r]})
			}
			il.m.Term(1, ns)
			for r := 0; r < XRegs; r++ {
				il.m.Term(1, occ[r])
			}
			il.m.Le(float64(XRegs)) // K for the transfer bank
		}
	}
}
