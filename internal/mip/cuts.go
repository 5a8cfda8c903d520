package mip

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/lp"
)

// This file implements the root-node cutting-plane machinery and the
// shared cut pool: lifted cover cuts separated from knapsack-form rows
// (the allocator's K/needsSpill-style capacity rows, and the
// multi-knapsack benchmark family) and clique cuts separated from a
// conflict graph built out of set-packing rows (the allocator's
// one_color / one_place / arith_bank families). Every cut is globally
// valid — derived from row structure and 0-1 integrality alone, never
// from node bounds — so cuts can be shared freely between the root LP
// and all tree-search workers.

// cut is one globally valid inequality lo <= sum vals*cols <= hi.
type cut struct {
	cols []int
	vals []float64
	lo   float64
	hi   float64
}

// violation returns how far x is outside the cut's bounds.
func (c *cut) violation(x []float64) float64 {
	act := 0.0
	for i, col := range c.cols {
		act += c.vals[i] * x[col]
	}
	if act > c.hi {
		return act - c.hi
	}
	if act < c.lo {
		return c.lo - act
	}
	return 0
}

// key canonicalizes a cut for pool deduplication.
func (c *cut) key() string {
	type term struct {
		col int
		val float64
	}
	terms := make([]term, len(c.cols))
	for i := range c.cols {
		terms[i] = term{c.cols[i], c.vals[i]}
	}
	sort.Slice(terms, func(a, b int) bool { return terms[a].col < terms[b].col })
	var b strings.Builder
	for _, t := range terms {
		b.WriteString(strconv.Itoa(t.col))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(t.val, 'g', -1, 64))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(c.lo, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(c.hi, 'g', -1, 64))
	return b.String()
}

// maxCutPool is the absolute pool bound; treeCutBudget additionally
// bounds how many cuts the tree may add beyond the root cuts, so
// node-separated covers cannot bloat every node LP.
const (
	maxCutPool    = 512
	treeCutBudget = 64
)

// cutPool is the concurrency-safe store of cuts shared by the root
// loop and the diving workers. It is append-only: workers apply pool
// cuts to their problem clones strictly in pool order, so any two
// clones' row sets are prefixes of one another beyond the base rows —
// which keeps basis snapshots exchangeable through the node pool (a
// snapshot from a shorter prefix loads into a longer one with the new
// rows' slacks basic).
type cutPool struct {
	mu   sync.RWMutex
	cuts []cut
	seen map[string]bool
}

func newCutPool() *cutPool { return &cutPool{seen: map[string]bool{}} }

// add appends cuts not already pooled and reports how many were new.
func (cp *cutPool) add(cuts []cut) int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	added := 0
	for i := range cuts {
		if len(cp.cuts) >= maxCutPool {
			break
		}
		k := cuts[i].key()
		if cp.seen[k] {
			continue
		}
		cp.seen[k] = true
		cp.cuts = append(cp.cuts, cuts[i])
		added++
	}
	return added
}

// tight returns copies of the pool cuts binding at x within tol. The
// root loop uses it once, before the tree starts, to drop slack cuts:
// a constraint inactive at the optimal vertex has zero dual weight, so
// the vertex (and the bound) survives its removal, while every node LP
// pays eta-file work per row carried.
func (cp *cutPool) tight(x []float64, tol float64) []cut {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	var out []cut
	for i := range cp.cuts {
		c := &cp.cuts[i]
		act := 0.0
		for k, col := range c.cols {
			act += c.vals[k] * x[col]
		}
		if (!math.IsInf(c.lo, 0) && act <= c.lo+tol) ||
			(!math.IsInf(c.hi, 0) && act >= c.hi-tol) {
			out = append(out, cp.cuts[i])
		}
	}
	return out
}

func (cp *cutPool) len() int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return len(cp.cuts)
}

// apply appends pool cuts [from, len) to p and returns the new prefix
// length. The pool is append-only and entries are immutable once
// added, so a snapshot of the slice header taken under the lock can be
// walked without it (a concurrent add may grow a new backing array,
// but this snapshot's entries never move or change).
func (cp *cutPool) apply(p *lp.Problem, from int) int {
	cp.mu.RLock()
	cuts := cp.cuts
	cp.mu.RUnlock()
	for i := from; i < len(cuts); i++ {
		c := &cuts[i]
		p.AddRow(c.lo, c.hi, c.cols, c.vals)
	}
	return len(cuts)
}

// objGranularity detects objective-lattice structure: when every
// column with a nonzero objective coefficient is integer-constrained
// and its coefficient is an integer, every integer-feasible point has
// an objective in g·Z for g the gcd of the coefficients. Node bounds
// can then be rounded up to the lattice before pruning — the implicit
// objective cut. Returns 0 when the structure is absent.
func objGranularity(p *lp.Problem, integer []bool) float64 {
	var g int64
	for j := 0; j < p.NumCols(); j++ {
		c := p.Obj(j)
		if c == 0 {
			continue
		}
		if !integer[j] {
			return 0
		}
		r := math.Round(c)
		if math.Abs(c-r) > 1e-9 || math.Abs(r) > 1e12 {
			return 0
		}
		a := int64(math.Abs(r))
		for a != 0 {
			g, a = a, g%a
		}
	}
	return float64(g)
}

// rowView is a row-wise snapshot of the base problem's constraint
// matrix (lp.Problem stores columns), shared read-only by the root
// separator and all workers.
type rowView struct {
	cols [][]int
	vals [][]float64
	lo   []float64
	hi   []float64
}

func newRowView(p *lp.Problem) *rowView {
	m := p.NumRows()
	rv := &rowView{
		cols: make([][]int, m),
		vals: make([][]float64, m),
		lo:   make([]float64, m),
		hi:   make([]float64, m),
	}
	for r := 0; r < m; r++ {
		rv.lo[r], rv.hi[r] = p.RowBounds(r)
	}
	for j := 0; j < p.NumCols(); j++ {
		for _, nz := range p.Col(j) {
			rv.cols[nz.Row] = append(rv.cols[nz.Row], j)
			rv.vals[nz.Row] = append(rv.vals[nz.Row], nz.Val)
		}
	}
	return rv
}

// separator holds the immutable separation context: the base row view,
// which columns are binary in the ROOT problem (cut validity must not
// depend on node-tightened bounds), and the conflict graph for clique
// cuts.
type separator struct {
	rows     *rowView
	binary   []bool
	neighbor []map[int]bool // conflict graph over binary columns
	hasConfl bool
}

func newSeparator(p *lp.Problem, integer []bool) *separator {
	n := p.NumCols()
	s := &separator{rows: newRowView(p), binary: make([]bool, n)}
	for j := 0; j < n; j++ {
		lo, hi := p.Bounds(j)
		s.binary[j] = integer[j] && lo == 0 && hi == 1
	}
	s.buildConflicts()
	return s
}

// buildConflicts derives pairwise conflicts from set-packing rows: all
// columns binary with coefficient 1 and an upper bound of 1 (this
// covers both sum <= 1 and sum = 1 rows, e.g. the allocator's
// one_color / one_place / arith_bank families). Two binaries in such a
// row can never both be 1 in an integer point.
func (s *separator) buildConflicts() {
	for r := range s.rows.cols {
		if s.rows.hi[r] != 1 {
			continue
		}
		cols := s.rows.cols[r]
		if len(cols) < 2 || len(cols) > 64 {
			continue
		}
		ok := true
		for i, col := range cols {
			if !s.binary[col] || s.rows.vals[r][i] != 1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if s.neighbor == nil {
			s.neighbor = make([]map[int]bool, len(s.binary))
		}
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				a, b := cols[i], cols[j]
				if s.neighbor[a] == nil {
					s.neighbor[a] = map[int]bool{}
				}
				if s.neighbor[b] == nil {
					s.neighbor[b] = map[int]bool{}
				}
				s.neighbor[a][b] = true
				s.neighbor[b][a] = true
				s.hasConfl = true
			}
		}
	}
}

// sepTol is the minimum violation for a cut to be worth adding.
const sepTol = 1e-4

// separate returns up to maxCuts violated cuts for the fractional
// point x, most violated first: lifted covers from every knapsack-form
// base row, then cliques from the conflict graph.
func (s *separator) separate(x []float64, maxCuts int) []cut {
	type scored struct {
		c    cut
		viol float64
	}
	var out []scored
	for r := range s.rows.cols {
		if c, viol, ok := s.coverFromRow(r, x); ok {
			out = append(out, scored{c, viol})
		}
	}
	for _, c := range s.cliques(x) {
		out = append(out, scored{c, c.violation(x)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].viol > out[j].viol })
	if len(out) > maxCuts {
		out = out[:maxCuts]
	}
	cuts := make([]cut, len(out))
	for i := range out {
		cuts[i] = out[i].c
	}
	return cuts
}

// coverFromRow separates one lifted cover cut from row r if the row
// has a knapsack form over binaries: every column binary, and a finite
// upper bound after complementing negative coefficients (a finite
// lower bound is handled by negating the row first). Returns the most
// violated of the two sides.
func (s *separator) coverFromRow(r int, x []float64) (cut, float64, bool) {
	cols := s.rows.cols[r]
	if len(cols) < 2 {
		return cut{}, 0, false
	}
	for _, col := range cols {
		if !s.binary[col] {
			return cut{}, 0, false
		}
	}
	vals := s.rows.vals[r]
	if !math.IsInf(s.rows.hi[r], 1) {
		if c, viol, ok := s.coverFromKnapsack(cols, vals, s.rows.hi[r], x); ok {
			return c, viol, true
		}
	}
	if !math.IsInf(s.rows.lo[r], -1) {
		neg := make([]float64, len(vals))
		for i, v := range vals {
			neg[i] = -v
		}
		if c, viol, ok := s.coverFromKnapsack(cols, neg, -s.rows.lo[r], x); ok {
			return c, viol, true
		}
	}
	return cut{}, 0, false
}

// coverFromKnapsack separates a lifted (extended) cover cut from
// sum a_j x_j <= b over binaries. Negative coefficients are
// complemented (y = 1-x), a greedy minimal cover is built against the
// fractional point, extended by every column whose weight dominates
// the cover, and translated back to original variables.
func (s *separator) coverFromKnapsack(cols []int, a []float64, b float64, x []float64) (cut, float64, bool) {
	// Complement to all-positive weights: z_j = x_j (a_j > 0) or
	// 1 - x_j (a_j < 0); rhs b' = b - sum_{a_j<0} a_j.
	type item struct {
		col  int
		w    float64 // positive weight
		z    float64 // complemented fractional value
		comp bool
	}
	items := make([]item, 0, len(cols))
	bp := b
	for i, col := range cols {
		switch {
		case a[i] > 0:
			items = append(items, item{col, a[i], x[col], false})
		case a[i] < 0:
			bp -= a[i]
			items = append(items, item{col, -a[i], 1 - x[col], true})
		}
	}
	if bp < 0 || len(items) < 2 {
		return cut{}, 0, false // infeasible row or degenerate
	}
	total := 0.0
	for i := range items {
		total += items[i].w
	}
	if total <= bp+1e-9 {
		return cut{}, 0, false // row can never bind: no cover exists
	}
	// Greedy cover: take items in increasing (1-z)/w — cheapest slack
	// per unit weight — until the weight exceeds b'.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(p, q int) bool {
		ip, iq := &items[order[p]], &items[order[q]]
		return (1-ip.z)*iq.w < (1-iq.z)*ip.w
	})
	var cover []int
	w := 0.0
	for _, i := range order {
		cover = append(cover, i)
		w += items[i].w
		if w > bp+1e-9 {
			break
		}
	}
	if w <= bp+1e-9 {
		return cut{}, 0, false
	}
	// Minimalize: drop members whose removal keeps it a cover (largest
	// weights are kept; iterate in increasing weight).
	sort.SliceStable(cover, func(p, q int) bool { return items[cover[p]].w < items[cover[q]].w })
	kept := cover[:0]
	for _, i := range cover {
		if w-items[i].w > bp+1e-9 {
			w -= items[i].w
			continue
		}
		kept = append(kept, i)
	}
	cover = kept
	if len(cover) < 2 {
		return cut{}, 0, false
	}
	// Violation check on the cover itself: sum z > |C| - 1.
	lhs := 0.0
	maxW := 0.0
	inCover := make(map[int]bool, len(cover))
	for _, i := range cover {
		lhs += items[i].z
		if items[i].w > maxW {
			maxW = items[i].w
		}
		inCover[i] = true
	}
	rhs := float64(len(cover) - 1)
	if lhs <= rhs+sepTol {
		return cut{}, 0, false
	}
	// Extended lifting: any column whose weight dominates every cover
	// member joins the left-hand side at the same rhs. (Valid for any
	// cover: |C| members of the extension always outweigh C.)
	ext := append([]int(nil), cover...)
	for i := range items {
		if !inCover[i] && items[i].w >= maxW {
			ext = append(ext, i)
		}
	}
	// Translate back: z = x or 1-x. sum_{E} z <= rhs becomes
	// sum_{plain} x - sum_{comp} x <= rhs - |comp in E|.
	c := cut{lo: math.Inf(-1)}
	compCount := 0
	for _, i := range ext {
		if items[i].comp {
			c.cols = append(c.cols, items[i].col)
			c.vals = append(c.vals, -1)
			compCount++
		} else {
			c.cols = append(c.cols, items[i].col)
			c.vals = append(c.vals, 1)
		}
	}
	c.hi = rhs - float64(compCount)
	return c, lhs - rhs, true
}

// cliques separates violated clique cuts by greedy growth in the
// conflict graph, seeded at the most fractional columns. A clique that
// spans several set-packing rows yields sum x <= 1, which no single
// source row implies.
func (s *separator) cliques(x []float64) []cut {
	if !s.hasConfl {
		return nil
	}
	var cand []int
	for j, nb := range s.neighbor {
		if nb != nil && x[j] > 0.05 {
			cand = append(cand, j)
		}
	}
	if len(cand) < 3 {
		return nil
	}
	sort.SliceStable(cand, func(a, b int) bool { return x[cand[a]] > x[cand[b]] })
	if len(cand) > 200 {
		cand = cand[:200]
	}
	var out []cut
	used := make(map[int]bool)
	for _, seed := range cand {
		if used[seed] {
			continue
		}
		clique := []int{seed}
		sum := x[seed]
		for _, j := range cand {
			if j == seed || used[j] {
				continue
			}
			ok := true
			for _, k := range clique {
				if !s.neighbor[j][k] {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, j)
				sum += x[j]
			}
		}
		// Size-2 "cliques" are existing rows; only larger ones add
		// information, and only violated ones are worth LP rows.
		if len(clique) < 3 || sum <= 1+sepTol {
			continue
		}
		for _, j := range clique {
			used[j] = true
		}
		c := cut{lo: math.Inf(-1), hi: 1}
		for _, j := range clique {
			c.cols = append(c.cols, j)
			c.vals = append(c.vals, 1)
		}
		out = append(out, c)
		if len(out) >= 16 {
			break
		}
	}
	return out
}
