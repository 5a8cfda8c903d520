package core

import (
	"fmt"
	"sort"

	"repro/internal/freq"
	"repro/internal/mir"
)

// Options selects the model variants discussed in the paper.
type Options struct {
	// Coarsen restricts move opportunities to event points (definitions,
	// uses, block boundaries) instead of every program point. Off
	// reproduces the paper's per-point model exactly; on shrinks the ILP
	// with a bounded optimality loss. Default on.
	Coarsen bool
	// Prune applies the §8 static analysis that rules out banks a
	// temporary can never usefully occupy.
	Prune bool
	// RedundantAggregate adds the §9 cuts that immediately exclude
	// impossible aggregate placements. The paper says they speed up the
	// solver; on its programs at one search worker they trade LP
	// iterations against nodes: off, NAT takes 1,619 iterations over 36
	// nodes instead of 1,859 over 63, while AES needs 3,720 iterations
	// instead of 3,645 and Kasumi 3,972 instead of 3,946. Default on.
	RedundantAggregate bool
	// BiasAB applies the §7 bias preferring A over B registers.
	BiasAB bool
	// Remat enables the §12 virtual constant bank C.
	Remat bool
	// NoSpill removes M from every temporary's allowed banks; the model
	// becomes infeasible if spilling would be required (used by the
	// spill-feasibility objective experiment of §11).
	NoSpill bool
	// Fallback selects the failure policy when the ILP cannot deliver a
	// usable allocation (see FallbackMode and DESIGN.md §10).
	Fallback FallbackMode
	// Hook, when set, intercepts the ILP solve: it may serve a cached
	// solution outright and observes verified results for caching (see
	// SolveHook and internal/cache).
	Hook SolveHook
}

// DefaultOptions matches the paper's evaluated configuration.
func DefaultOptions() Options {
	return Options{
		Coarsen:            true,
		Prune:              true,
		RedundantAggregate: true,
		BiasAB:             true,
	}
}

// pointID identifies a program point (§5.2: each instruction sits
// between two points).
type pointID int

// locID identifies a location variable: the bank of one temporary over
// one segment of its lifetime. Location variables connected by
// carry-unchanged edges (the paper's Copy set) are unified into webs.
type locID int

// graph is the per-program analysis the model is built from.
type graph struct {
	mp   *mir.Program
	opts Options

	// The point layout: block b's points are entry[b] through
	// entry[b+1]-1, one per instruction boundary plus one after a
	// branch comparison; the last is b's exit. Every point-numbering
	// site reads it.
	npoints int
	entry   []pointID
	weight  []float64 // per point (execution frequency estimate)

	// Per-temp data.
	isConst  []bool
	constVal []uint32
	cloneSet []int // clone-set id per temp, -1 if none

	// Location variables and union-find.
	locTemp   []mir.Temp
	locParent []int
	locAllow  []bankSet

	// Arcs: move opportunities between consecutive locations of a temp.
	arcs []arc

	// Arith-style operand pairing (two sources of one instruction).
	pairs []pair

	// Aggregates (ordered temps that must occupy consecutive registers).
	aggs []aggregate

	// Same-register pairs (hash, bit-test-set): dst in dstBank and src
	// in srcBank share a register number.
	sameRegs []sameRegCon

	// Clone links: at the clone instruction the clone starts in the
	// same location (and color) as its source.
	cloneLinks []cloneLink

	// Renames: control-flow edges that bind one temp's value to another
	// (jump argument -> block parameter). The webs are unified (same
	// bank, and same transfer register via color constraints), but the
	// A/B register assignment treats them as coalescing candidates —
	// failed coalescing costs a real copy at the edge (Park-Moon, §9).
	renames []renamePair

	// Per-point occupancy: which locations count against bank capacity
	// before and after each point.
	beforeLocs [][]locEntry
	afterLocs  [][]locEntry

	// active[v] = sorted list of (fromPoint, loc) runs for lookups.
	active [][]activeRun
}

type arc struct {
	v        mir.Temp
	from, to locID
	point    pointID
}

type pair struct{ x, y locID }

type aggregate struct {
	bank  Bank
	temps []mir.Temp
}

type sameRegCon struct {
	dst, src         mir.Temp
	dstBank, srcBank Bank
}

type cloneLink struct {
	dLoc, sLoc locID
	d, s       mir.Temp
	point      pointID
}

type renamePair struct {
	arg, param mir.Temp
	argLoc     locID // arg's location at the edge (pred side)
	paramLoc   locID // param's entry location (succ side)
	pred, succ mir.BlockID
	exitPoint  pointID
}

type locEntry struct {
	v   mir.Temp
	loc locID
}

type activeRun struct {
	from pointID
	loc  locID
	// arrival marks the first run of a block-local chain: a live-in
	// value at block entry, a fresh definition, or a clone arrival.
	// Before any move at `from`, the value is in this location —
	// never in the last location of an earlier (possibly
	// non-adjacent) block's chain.
	arrival bool
}

// find resolves the union-find root of a location.
func (g *graph) find(l locID) locID {
	for g.locParent[l] != int(l) {
		g.locParent[l] = g.locParent[locID(g.locParent[l])]
		l = locID(g.locParent[l])
	}
	return l
}

func (g *graph) union(a, b locID) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return
	}
	g.locParent[ra] = int(rb)
	g.locAllow[rb] = g.locAllow[rb].intersect(g.locAllow[ra])
}

func (g *graph) newLoc(v mir.Temp, allow bankSet) locID {
	l := locID(len(g.locTemp))
	g.locTemp = append(g.locTemp, v)
	g.locParent = append(g.locParent, int(l))
	g.locAllow = append(g.locAllow, allow)
	return l
}

// buildGraph runs the full analysis for a MIR program.
func buildGraph(mp *mir.Program, opts Options) (*graph, error) {
	normalize(mp)
	nt := mp.NumTemps()
	g := &graph{mp: mp, opts: opts, active: make([][]activeRun, nt)}
	g.isConst = make([]bool, nt)
	g.constVal = make([]uint32, nt)
	g.cloneSet = make([]int, nt)
	for i := range g.cloneSet {
		g.cloneSet[i] = -1
	}

	// Points: per block, len(instrs)+1 boundary points, plus one after
	// a branch comparison. Blocks are numbered in layout order.
	blockFreq := freq.Estimate(mp)
	g.entry = make([]pointID, len(mp.Blocks)+1)
	for _, b := range mp.Blocks {
		n := len(b.Instrs) + 1
		if _, isBr := b.Term.(*mir.Branch); isBr {
			n++
		}
		g.entry[b.ID] = pointID(g.npoints)
		for i := 0; i < n; i++ {
			g.weight = append(g.weight, blockFreq[b.ID])
		}
		g.npoints += n
	}
	g.entry[len(mp.Blocks)] = pointID(g.npoints)
	g.beforeLocs = make([][]locEntry, g.npoints)
	g.afterLocs = make([][]locEntry, g.npoints)

	// Const temps (for the C bank / re-materialization).
	for _, b := range mp.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind == mir.KImm {
				g.isConst[in.Dsts[0]] = true
				g.constVal[in.Dsts[0]] = in.Val
			}
		}
	}
	// Clone sets.
	cloneUF := newIntUF(nt)
	for _, b := range mp.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind == mir.KClone {
				cloneUF.union(int(in.Dsts[0]), int(in.Srcs[0].Temp))
			}
		}
	}
	// Sets of two or more temps are numbered in the order of their
	// smallest member.
	nextSet := 0
	for t := 0; t < nt; t++ {
		r := cloneUF.find(t)
		if cloneUF.size(r) == 1 {
			continue
		}
		if g.cloneSet[r] < 0 {
			g.cloneSet[r] = nextSet
			nextSet++
		}
		g.cloneSet[t] = g.cloneSet[r]
	}

	// Allowed banks per temp (§8 pruning).
	allowed := g.pruneBanks()

	lv := mir.ComputeLiveness(mp)
	// Build per-block, per-var chains.
	for _, b := range mp.Blocks {
		if err := g.buildBlock(b, lv, allowed); err != nil {
			return nil, err
		}
	}
	// Control-edge unification.
	var temps []mir.Temp
	for _, b := range mp.Blocks {
		exitPt := g.exit(b.ID)
		for _, e := range b.Succs() {
			target := mp.Blocks[e.To]
			entryPt := g.entry[e.To]
			// Arguments feed parameters.
			for i, a := range e.Args {
				if a.IsImm {
					return nil, fmt.Errorf("core: immediate edge argument survived normalization")
				}
				src := g.activeLocAt(a.Temp, exitPt)
				dst := g.beforeLocAt(target.Params[i], entryPt)
				if dst < 0 {
					// The parameter is dead in the target; the argument
					// needs no location agreement.
					continue
				}
				if src < 0 {
					return nil, fmt.Errorf("core: missing loc for edge b%d->b%d arg %d", b.ID, e.To, i)
				}
				g.union(src, dst)
				if a.Temp != target.Params[i] {
					g.renames = append(g.renames, renamePair{
						arg: a.Temp, param: target.Params[i],
						argLoc: src, paramLoc: dst,
						pred: b.ID, succ: e.To, exitPoint: exitPt,
					})
					// When the argument stays live into the target, the
					// parameter must get a different register there (they
					// hold different values on other paths), so a copy is
					// unavoidable — and a copy cannot write a transfer
					// bank. Keep such webs out of the transfer banks.
					if lv.In[e.To].Has(a.Temp) {
						root := g.find(dst)
						na := g.locAllow[root].del(L).del(LD).del(S).del(SD)
						if na == 0 {
							return nil, fmt.Errorf("core: rename %s->%s needs a transfer bank but its argument stays live",
								mp.TempName(a.Temp), mp.TempName(target.Params[i]))
						}
						g.locAllow[root] = na
					}
				}
			}
			// Live-through variables carry unchanged, in temp order.
			temps = lv.In[e.To].AppendTo(temps[:0])
			for _, v := range temps {
				if isParam(target, v) {
					continue
				}
				src := g.activeLocAt(v, exitPt)
				dst := g.beforeLocAt(v, entryPt)
				if src < 0 || dst < 0 {
					return nil, fmt.Errorf("core: missing loc for live-through %s on b%d->b%d",
						mp.TempName(v), b.ID, e.To)
				}
				g.union(src, dst)
			}
		}
	}
	return g, nil
}

func isParam(b *mir.Block, v mir.Temp) bool {
	for _, p := range b.Params {
		if p == v {
			return true
		}
	}
	return false
}

// exit returns block b's exit point, after its branch comparison if
// it has one.
func (g *graph) exit(b mir.BlockID) pointID { return g.entry[b+1] - 1 }

// blockOf returns the block that holds point p.
func (g *graph) blockOf(p pointID) mir.BlockID {
	return mir.BlockID(sort.Search(len(g.mp.Blocks), func(b int) bool { return g.entry[b+1] > p }))
}

// pointName formats p as block.index, for error messages.
func (g *graph) pointName(p pointID) string {
	b := g.blockOf(p)
	return fmt.Sprintf("b%d.%d", b, p-g.entry[b])
}

// activeLocAt returns v's post-move location at point p.
func (g *graph) activeLocAt(v mir.Temp, p pointID) locID {
	runs := g.active[v]
	best := locID(-1)
	for _, r := range runs {
		if r.from <= p {
			best = r.loc
		} else {
			break
		}
	}
	return best
}

// intUF is a small union-find over ints with size tracking.
type intUF struct {
	parent []int
	sz     []int
}

func newIntUF(n int) *intUF {
	u := &intUF{parent: make([]int, n), sz: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.sz[i] = 1
	}
	return u
}

func (u *intUF) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *intUF) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
		u.sz[rb] += u.sz[ra]
	}
}

func (u *intUF) size(x int) int { return u.sz[u.find(x)] }

// normalize rewrites the MIR so the model builder sees no immediate
// edge arguments or halt results: they become explicit KImm temps.
func normalize(mp *mir.Program) {
	for _, b := range mp.Blocks {
		materialize := func(o *mir.Operand) {
			if !o.IsImm {
				return
			}
			t := mp.NewTemp(fmt.Sprintf("k%x", o.Imm))
			b.Instrs = append(b.Instrs, mir.Instr{Kind: mir.KImm, Val: o.Imm, Dsts: []mir.Temp{t}})
			*o = mir.T(t)
		}
		switch t := b.Term.(type) {
		case *mir.Jump:
			for i := range t.Edge.Args {
				materialize(&t.Edge.Args[i])
			}
		case *mir.Branch:
			for i := range t.Then.Args {
				materialize(&t.Then.Args[i])
			}
			for i := range t.Else.Args {
				materialize(&t.Else.Args[i])
			}
		case *mir.Halt:
			for i := range t.Results {
				materialize(&t.Results[i])
			}
		}
	}
}
