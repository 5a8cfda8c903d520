package core

import (
	"cmp"
	"slices"
)

// heuristic attempts to complete a node LP solution into a feasible
// integer point: it rounds the bank-position variables, solves the
// remaining color assignment combinatorially (the colors are highly
// symmetric, which branch-and-bound alone handles poorly), and fills
// in every derived column. The MIP solver verifies feasibility.
func (il *ilp) heuristic(x []float64) ([]float64, bool) {
	g := il.g
	// 1. Round positions: pick the maximum-weight bank per web.
	bankChosen := make([]Bank, len(g.locTemp)) // by web root
	for _, r := range il.roots {
		var best Bank = -1
		bestV := -1.0
		for _, b := range g.locAllow[r].banks() {
			v := x[il.posCol[r][b]]
			if v > bestV {
				best, bestV = b, v
			}
		}
		if best < 0 {
			return nil, false
		}
		bankChosen[r] = best
	}
	// 1b. Repair ALU operand-pairing violations caused by rounding
	// ties: the two sources of one instruction cannot share A or B, and
	// at most one may sit in the transfer banks.
	for _, pr := range g.pairs {
		rx, ry := g.find(pr.x), g.find(pr.y)
		bx, by := bankChosen[rx], bankChosen[ry]
		conflict := (bx == by && (bx == A || bx == B)) ||
			((bx == L || bx == LD) && (by == L || by == LD))
		if !conflict {
			continue
		}
		// Move y to an alternative readable bank.
		moved := false
		for _, alt := range []Bank{A, B, L, LD} {
			if alt == by {
				continue
			}
			if alt == bx && (alt == A || alt == B) {
				continue
			}
			if (alt == L || alt == LD) && (bx == L || bx == LD) {
				continue
			}
			if g.locAllow[ry].has(alt) {
				bankChosen[ry] = alt
				moved = true
				break
			}
		}
		if !moved {
			// Try moving x instead.
			for _, alt := range []Bank{A, B, L, LD} {
				if alt == bx {
					continue
				}
				if alt == by && (alt == A || alt == B) {
					continue
				}
				if (alt == L || alt == LD) && (by == L || by == LD) {
					continue
				}
				if g.locAllow[rx].has(alt) {
					bankChosen[rx] = alt
					moved = true
					break
				}
			}
		}
		if !moved {
			return nil, false
		}
	}
	// 2. Solve the color constraint system under the chosen banks.
	colors, ok := il.solveColors(bankChosen)
	if !ok {
		return nil, false
	}
	// 3. Fill the solution vector.
	x2 := slices.Clone(x)
	for _, r := range il.roots {
		for _, b := range g.locAllow[r].banks() {
			v := 0.0
			if b == bankChosen[r] {
				v = 1
			}
			x2[il.posCol[r][b]] = v
		}
	}
	for id, cv := range il.colorVars {
		for r := 0; r < XRegs; r++ {
			v := 0.0
			if colors[id] == r {
				v = 1
			}
			x2[cv.col+r] = v
		}
	}
	for i, cols := range il.moveCols {
		if cols == nil {
			continue
		}
		a := g.arcs[i]
		b1, b2 := bankChosen[g.find(a.from)], bankChosen[g.find(a.to)]
		found := false
		for _, mc := range cols {
			v := 0.0
			if mc.b1 == b1 && mc.b2 == b2 {
				v, found = 1, true
			}
			x2[mc.col] = v
		}
		if !found {
			return nil, false // no physical path for the rounded banks
		}
	}
	for _, mc := range il.maxCols {
		v := 0.0
		for _, c := range mc.of {
			if x2[c] > v {
				v = x2[c]
			}
		}
		x2[mc.col] = v
	}
	for _, oc := range il.occCols {
		v := 0.0
		for _, pr := range oc.pairs {
			if w := x2[pr[0]] + x2[pr[1]] - 1; w > v {
				v = w
			}
		}
		x2[oc.col] = v
	}
	return x2, true
}

// solveColors assigns a register 0..7 to every color variable,
// honoring aggregate adjacency, same-register couplings, clone
// co-location, and interference, via offset union-find plus
// backtracking. It returns the registers by color variable id.
func (il *ilp) solveColors(bankChosen []Bank) ([]int, bool) {
	g := il.g
	n := len(il.colorVars)
	// Offset union-find: value(k) = value(root(k)) + offset[k].
	parent := make([]int, n)
	offset := make([]int, n)
	for k := range parent {
		parent[k] = k
	}
	var find func(k int) (int, int)
	find = func(k int) (int, int) {
		if parent[k] == k {
			return k, 0
		}
		r, o := find(parent[k])
		parent[k] = r
		offset[k] += o
		return r, offset[k]
	}
	okAll := true
	// merge enforces value(a) = value(b) + d.
	merge := func(a, b, d int) {
		if a < 0 || b < 0 {
			return // no such color variable
		}
		ra, oa := find(a)
		rb, ob := find(b)
		if ra == rb {
			if oa != ob+d {
				okAll = false
			}
			return
		}
		// value(ra) = value(a) - oa = value(b) + d - oa = value(rb) + ob + d - oa
		parent[ra] = rb
		offset[ra] = ob + d - oa
	}
	for _, agg := range g.aggs {
		for k := 0; k+1 < len(agg.temps); k++ {
			merge(il.colorVarOf[agg.temps[k+1]][agg.bank], il.colorVarOf[agg.temps[k]][agg.bank], 1)
		}
	}
	for _, sr := range g.sameRegs {
		merge(il.colorVarOf[sr.dst][sr.dstBank], il.colorVarOf[sr.src][sr.srcBank], 0)
	}
	for _, cl := range g.cloneLinks {
		if b := bankChosen[g.find(cl.dLoc)]; b.IsXfer() {
			merge(il.colorVarOf[cl.d][b], il.colorVarOf[cl.s][b], 0)
		}
	}
	for _, rn := range g.renames {
		if b := bankChosen[g.find(rn.paramLoc)]; b.IsXfer() {
			merge(il.colorVarOf[rn.arg][b], il.colorVarOf[rn.param][b], 0)
		}
	}
	if !okAll {
		return nil, false
	}
	// Class domains: the root value must keep every member in 0..7
	// (the root is its own member at offset 0).
	lo := make([]int, n)
	hi := make([]int, n)
	var classes []int
	for k := range lo {
		lo[k], hi[k] = 0, XRegs-1
	}
	for k := range lo {
		r, o := find(k)
		if r == k {
			classes = append(classes, k)
		}
		lo[r] = max(lo[r], -o)
		hi[r] = min(hi[r], XRegs-1-o)
	}
	for _, r := range classes {
		if lo[r] > hi[r] {
			return nil, false
		}
	}
	// Disequalities from interference: temps co-resident in one
	// transfer bank need distinct registers (clones excluded).
	type diseq struct {
		a, b int
		d    int // value(a) != value(b) + d
	}
	var diseqs []diseq
	for p := 0; p < g.npoints; p++ {
		for _, list := range [][]locEntry{g.beforeLocs[p], g.afterLocs[p]} {
			for i := 0; i < len(list); i++ {
				ri := g.find(list[i].loc)
				bi := bankChosen[ri]
				if !bi.IsXfer() {
					continue
				}
				for j := i + 1; j < len(list); j++ {
					rj := g.find(list[j].loc)
					if bankChosen[rj] != bi {
						continue
					}
					v1, v2 := list[i].v, list[j].v
					if v1 == v2 || ri == rj {
						continue
					}
					if g.cloneSet[v1] >= 0 && g.cloneSet[v1] == g.cloneSet[v2] {
						continue
					}
					ra, oa := find(il.colorVarOf[v1][bi])
					rb, ob := find(il.colorVarOf[v2][bi])
					if ra == rb {
						if oa == ob {
							return nil, false // forced equal but must differ
						}
						continue
					}
					diseqs = append(diseqs, diseq{a: ra, b: rb, d: ob - oa})
				}
			}
		}
	}
	slices.SortFunc(diseqs, func(x, y diseq) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b), cmp.Compare(x.d, y.d))
	})
	diseqs = slices.Compact(diseqs)
	// Backtracking over class roots: most-constrained first.
	adj := make([][]diseq, n)
	for _, d := range diseqs {
		adj[d.a] = append(adj[d.a], d)
		adj[d.b] = append(adj[d.b], diseq{a: d.b, b: d.a, d: -d.d})
	}
	slices.SortFunc(classes, func(x, y int) int {
		return cmp.Or(
			cmp.Compare(hi[x]-lo[x], hi[y]-lo[y]),
			cmp.Compare(len(adj[y]), len(adj[x])),
			cmp.Compare(x, y))
	})
	// val[r] is class root r's register, -1 while unassigned.
	val := make([]int, n)
	for r := range val {
		val[r] = -1
	}
	steps := 0
	var assign func(i int) bool
	assign = func(i int) bool {
		if i == len(classes) {
			return true
		}
		r := classes[i]
		for v := lo[r]; v <= hi[r]; v++ {
			steps++
			if steps > 200000 {
				return false
			}
			ok := true
			for _, d := range adj[r] {
				if w := val[d.b]; w >= 0 && v == w+d.d {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			val[r] = v
			if assign(i + 1) {
				return true
			}
			val[r] = -1
		}
		return false
	}
	if !assign(0) {
		return nil, false
	}
	out := make([]int, n)
	for k := range out {
		r, o := find(k)
		out[k] = val[r] + o
	}
	return out, true
}
