package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// This file is the model-canonicalization layer behind the compile
// cache (DESIGN.md §12): it reduces an ILP to an identifier-independent
// canonical form whose content hash keys the novad cache. Two models
// that differ only in variable naming, declaration order, or column/row
// insertion order hash identically; any edit to a coefficient, bound,
// row range or objective term changes the hash.

// Canon is the canonical form of a model: one content hash plus the
// canonical column/row orders used to translate solutions between
// isomorphic models.
//
// Exact covers dimensions, integrality, the constraint matrix, the
// variable bounds and row ranges, and the objective. Equal Exact
// hashes mean the same optimization problem, so a verified optimal
// solution carries over outright.
//
// Hashing is permutation-invariant (Weisfeiler–Leman color refinement
// over the bipartite column/row graph followed by multiset hashing),
// so it cannot be fooled by reordered declarations or alpha-renamed
// identifiers. The converse direction — distinct models colliding — is
// guarded downstream: every cached artifact is re-verified against the
// requesting model before it is trusted (see internal/cache).
type Canon struct {
	Exact string // hex, 128-bit

	// ColOrder and RowOrder list column/row indices in canonical order
	// (canonical position i holds original index ColOrder[i]). Ties
	// between symmetric variables are broken by original index, so the
	// orders of two different-but-isomorphic models need not correspond;
	// translations through them are therefore always re-verified.
	ColOrder []int
	RowOrder []int
}

// wlRounds is the number of color-refinement sweeps. The bipartite
// graph's diameter on the allocator models is small; a handful of
// rounds separates everything the refinement can separate.
const wlRounds = 6

// mix64 folds words into a running 64-bit hash (splitmix-style).
func mix64(h uint64, xs ...uint64) uint64 {
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

func f64bits(v float64) uint64 {
	if v == 0 {
		v = 0 // normalize -0
	}
	return math.Float64bits(v)
}

// digest reduces an item multiset to a 128-bit hex hash: items are
// sorted (making the digest permutation-invariant) and run through
// SHA-256.
func digest(items []uint64) string {
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	h := sha256.New()
	var buf [8]byte
	for _, it := range items {
		binary.LittleEndian.PutUint64(buf[:], it)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Canonicalize computes the canonical form of the model's current ILP.
// It reads the model only, so it is safe to call before or after a
// solve; cost is a few refinement sweeps over the nonzeros.
func (m *Model) Canonicalize() *Canon {
	p := m.lp
	n, mr := p.NumCols(), p.NumRows()

	// Weisfeiler–Leman refinement over structural data only: integral
	// columns vs continuous, and the matrix coefficients as edge labels.
	colC := make([]uint64, n)
	rowC := make([]uint64, mr)
	for j := 0; j < n; j++ {
		init := uint64(0xc01)
		if m.integer[j] {
			init = 0xc02
		}
		colC[j] = mix64(init, uint64(len(p.Col(j))))
	}
	for r := 0; r < mr; r++ {
		rowC[r] = mix64(0xa0b, uint64(len(p.Row(r))))
	}
	scratch := make([]uint64, 0, 64)
	for round := 0; round < wlRounds; round++ {
		newRow := make([]uint64, mr)
		for r := 0; r < mr; r++ {
			scratch = scratch[:0]
			for _, e := range p.Row(r) {
				scratch = append(scratch, mix64(colC[e.Col], f64bits(e.Val)))
			}
			sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })
			newRow[r] = mix64(rowC[r], scratch...)
		}
		newCol := make([]uint64, n)
		for j := 0; j < n; j++ {
			scratch = scratch[:0]
			for _, nz := range p.Col(j) {
				scratch = append(scratch, mix64(newRow[nz.Row], f64bits(nz.Val)))
			}
			sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })
			newCol[j] = mix64(colC[j], scratch...)
		}
		colC, rowC = newCol, newRow
	}

	// One multiset digest over the matrix colors, the bounds and row
	// ranges, and the objective. The items are tagged per kind, so their
	// order in the slice does not matter (digest sorts them).
	items := make([]uint64, 0, 1+3*n+2*mr)
	items = append(items, mix64(0xd1e, uint64(n), uint64(mr)))
	for j := 0; j < n; j++ {
		items = append(items, mix64(0xc0, colC[j]))
	}
	for r := 0; r < mr; r++ {
		items = append(items, mix64(0x70, rowC[r]))
	}
	for j := 0; j < n; j++ {
		lo, hi := p.Bounds(j)
		items = append(items, mix64(0xcb, colC[j], f64bits(lo), f64bits(hi)))
	}
	for r := 0; r < mr; r++ {
		lo, hi := p.RowBounds(r)
		items = append(items, mix64(0x7b, rowC[r], f64bits(lo), f64bits(hi)))
	}
	for j := 0; j < n; j++ {
		items = append(items, mix64(0xcf, colC[j], f64bits(p.Obj(j))))
	}

	c := &Canon{
		ColOrder: make([]int, n),
		RowOrder: make([]int, mr),
	}
	for j := range c.ColOrder {
		c.ColOrder[j] = j
	}
	for r := range c.RowOrder {
		c.RowOrder[r] = r
	}
	// Order primarily by structural color, then by bounds and objective
	// so that structurally symmetric variables with different data sort
	// deterministically across isomorphic models, then by original
	// index. Any ambiguity that survives (true symmetries) is caught by
	// the downstream isomorphism verification, not trusted.
	colKey := func(j int) [4]uint64 {
		lo, hi := p.Bounds(j)
		return [4]uint64{colC[j], f64bits(lo), f64bits(hi), f64bits(p.Obj(j))}
	}
	rowKey := func(r int) [3]uint64 {
		lo, hi := p.RowBounds(r)
		return [3]uint64{rowC[r], f64bits(lo), f64bits(hi)}
	}
	sort.SliceStable(c.ColOrder, func(a, b int) bool {
		ja, jb := c.ColOrder[a], c.ColOrder[b]
		ka, kb := colKey(ja), colKey(jb)
		if ka != kb {
			for i := range ka {
				if ka[i] != kb[i] {
					return ka[i] < kb[i]
				}
			}
		}
		return ja < jb
	})
	sort.SliceStable(c.RowOrder, func(a, b int) bool {
		ra, rb := c.RowOrder[a], c.RowOrder[b]
		ka, kb := rowKey(ra), rowKey(rb)
		if ka != kb {
			for i := range ka {
				if ka[i] != kb[i] {
					return ka[i] < kb[i]
				}
			}
		}
		return ra < rb
	})
	c.Exact = digest(items)
	return c
}

// CheckFeasible verifies that x is a feasible point of the model's ILP:
// right length, within variable bounds, integral where required, and
// inside every row range (all within tol). It is the validation gate
// every cache-served solution passes before it is trusted — a corrupted
// or colliding cache entry fails here and the caller falls back to a
// full solve. Every comparison is written so that NaN fails it.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	p := m.lp
	n := p.NumCols()
	if len(x) != n {
		return fmt.Errorf("model: point has %d values, model has %d columns", len(x), n)
	}
	act := make([]float64, p.NumRows())
	for j := 0; j < n; j++ {
		v := x[j]
		if m.integer[j] && !(math.Abs(v-math.Round(v)) <= tol) {
			return fmt.Errorf("model: column %d = %g is not integral", j, v)
		}
		lo, hi := p.Bounds(j)
		if !(v >= lo-tol && v <= hi+tol) {
			return fmt.Errorf("model: column %d = %g outside bounds [%g, %g]", j, v, lo, hi)
		}
		for _, nz := range p.Col(j) {
			act[nz.Row] += nz.Val * v
		}
	}
	scale := 1.0
	for r := range act {
		if a := math.Abs(act[r]); a > scale {
			scale = a
		}
	}
	for r := range act {
		lo, hi := p.RowBounds(r)
		if !(act[r] >= lo-tol*scale && act[r] <= hi+tol*scale) {
			return fmt.Errorf("model: row %d activity %g outside [%g, %g]", r, act[r], lo, hi)
		}
	}
	return nil
}

// Objective evaluates the model's objective at x (without any
// presolve or pinned-arc constants — the raw LP objective).
func (m *Model) Objective(x []float64) float64 {
	obj := 0.0
	for j := 0; j < m.lp.NumCols() && j < len(x); j++ {
		obj += m.lp.Obj(j) * x[j]
	}
	return obj
}
