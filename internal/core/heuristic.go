package core

import (
	"sort"

	"repro/internal/mir"
)

// heuristic attempts to complete a node LP solution into a feasible
// integer point: it rounds the bank-position variables, solves the
// remaining color assignment combinatorially (the colors are highly
// symmetric, which branch-and-bound alone handles poorly), and fills
// in every derived column. The MIP solver verifies feasibility.
func (il *ilp) heuristic(x []float64) ([]float64, bool) {
	g := il.g
	// 1. Round positions: pick the maximum-weight bank per web.
	bankChosen := map[locID]Bank{}
	for _, r := range il.roots {
		var best Bank = -1
		bestV := -1.0
		for _, b := range g.locAllow[r].banks() {
			v := x[il.posCol[posKey{r, b}]]
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
	x2 := append([]float64(nil), x...)
	for _, r := range il.roots {
		for _, b := range g.locAllow[r].banks() {
			v := 0.0
			if b == bankChosen[r] {
				v = 1
			}
			x2[il.posCol[posKey{r, b}]] = v
		}
	}
	for key, col := range il.colorCol {
		v := 0.0
		if colors[colorVarKey{key.v, key.bank}] == key.reg {
			v = 1
		}
		x2[col] = v
	}
	for i, a := range g.arcs {
		pairs := il.moveCols[i]
		if pairs == nil {
			continue
		}
		from, to := g.find(a.from), g.find(a.to)
		want := [2]Bank{bankChosen[from], bankChosen[to]}
		if _, ok := pairs[want]; !ok {
			return nil, false // no physical path for the rounded banks
		}
		for pair, col := range pairs {
			if pair == want {
				x2[col] = 1
			} else {
				x2[col] = 0
			}
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

type colorVarKey struct {
	v    mir.Temp
	bank Bank
}

// solveColors assigns a register 0..7 to every (temp, transfer bank)
// color variable, honoring aggregate adjacency, same-register
// couplings, clone co-location, and interference, via offset
// union-find plus backtracking.
func (il *ilp) solveColors(bankChosen map[locID]Bank) (map[colorVarKey]int, bool) {
	g := il.g
	// Collect the color variables.
	vars := map[colorVarKey]bool{}
	for key := range il.colorCol {
		vars[colorVarKey{key.v, key.bank}] = true
	}
	// Offset union-find: value(k) = value(root(k)) + offset(k).
	parent := map[colorVarKey]colorVarKey{}
	offset := map[colorVarKey]int{}
	var find func(k colorVarKey) (colorVarKey, int)
	find = func(k colorVarKey) (colorVarKey, int) {
		if parent[k] == k {
			return k, 0
		}
		r, o := find(parent[k])
		parent[k] = r
		offset[k] += o
		return r, offset[k]
	}
	for k := range vars {
		parent[k] = k
		offset[k] = 0
	}
	okAll := true
	// merge enforces value(a) = value(b) + d.
	merge := func(a, b colorVarKey, d int) {
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
			merge(colorVarKey{agg.temps[k+1], agg.bank}, colorVarKey{agg.temps[k], agg.bank}, 1)
		}
	}
	for _, sr := range g.sameRegs {
		merge(colorVarKey{sr.dst, sr.dstBank}, colorVarKey{sr.src, sr.srcBank}, 0)
	}
	for _, cl := range g.cloneLinks {
		root := g.find(cl.dLoc)
		b := bankChosen[root]
		if b.IsXfer() && vars[colorVarKey{cl.d, b}] && vars[colorVarKey{cl.s, b}] {
			merge(colorVarKey{cl.d, b}, colorVarKey{cl.s, b}, 0)
		}
	}
	for _, rn := range g.renames {
		root := g.find(rn.paramLoc)
		b := bankChosen[root]
		if b.IsXfer() && vars[colorVarKey{rn.arg, b}] && vars[colorVarKey{rn.param, b}] {
			merge(colorVarKey{rn.arg, b}, colorVarKey{rn.param, b}, 0)
		}
	}
	if !okAll {
		return nil, false
	}
	// Class domains: the root value must keep every member in 0..7.
	lo := map[colorVarKey]int{}
	hi := map[colorVarKey]int{}
	var classes []colorVarKey
	for k := range vars {
		r, o := find(k)
		if _, seen := lo[r]; !seen {
			lo[r], hi[r] = -100, 100
			classes = append(classes, r)
		}
		if l := 0 - o; l > lo[r] {
			lo[r] = l
		}
		if h := XRegs - 1 - o; h < hi[r] {
			hi[r] = h
		}
	}
	for _, r := range classes {
		if lo[r] > hi[r] {
			return nil, false
		}
	}
	// Disequalities from interference: temps co-resident in one
	// transfer bank need distinct registers (clones excluded).
	type diseq struct {
		a, b colorVarKey
		d    int // value(a) != value(b) + d
	}
	var diseqs []diseq
	seen := map[diseq]bool{}
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
					k1 := colorVarKey{v1, bi}
					k2 := colorVarKey{v2, bi}
					ra, oa := find(k1)
					rb, ob := find(k2)
					if ra == rb {
						if oa == ob {
							return nil, false // forced equal but must differ
						}
						continue
					}
					key := diseq{a: ra, b: rb, d: ob - oa}
					if seen[key] {
						continue
					}
					seen[key] = true
					diseqs = append(diseqs, key)
				}
			}
		}
	}
	// Backtracking over class roots: most-constrained first.
	adj := map[colorVarKey][]diseq{}
	for _, d := range diseqs {
		adj[d.a] = append(adj[d.a], d)
		adj[d.b] = append(adj[d.b], diseq{a: d.b, b: d.a, d: -d.d})
	}
	sort.Slice(classes, func(i, j int) bool {
		di := hi[classes[i]] - lo[classes[i]]
		dj := hi[classes[j]] - lo[classes[j]]
		if di != dj {
			return di < dj
		}
		if len(adj[classes[i]]) != len(adj[classes[j]]) {
			return len(adj[classes[i]]) > len(adj[classes[j]])
		}
		return less(classes[i], classes[j])
	})
	val := map[colorVarKey]int{}
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
				if w, has := val[d.b]; has && v == w+d.d {
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
			delete(val, r)
		}
		return false
	}
	if !assign(0) {
		return nil, false
	}
	out := map[colorVarKey]int{}
	for k := range vars {
		r, o := find(k)
		out[k] = val[r] + o
	}
	return out, true
}

func less(a, b colorVarKey) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	return a.bank < b.bank
}
