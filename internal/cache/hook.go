package cache

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/mip"
	"repro/internal/model"
)

// corruptPoint lets fault plans flip a value in a cache-served
// solution before it reaches validation, proving the validation gate
// catches corrupted entries (fault plan "cache/corrupt@1", etc.).
var corruptPoint = fault.NewPoint("cache/corrupt")

// Outcome classifies what the cache did for one request.
type Outcome int

const (
	OutcomeNone Outcome = iota // hook never consulted (e.g. fallback-forced)
	OutcomeMiss                // cold: no usable entry
	OutcomeHit                 // served a verified cached allocation
)

// String returns the wire name of the outcome, as reported in novad
// responses ("miss", "hit", "none").
func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeHit:
		return "hit"
	default:
		return "none"
	}
}

// Hook adapts one compile request to the cache. It implements
// core.Options.Hook (core duck-types the interface so core does not
// import this package). A Hook is single-use and not concurrency-safe;
// the server creates one per request and reads Outcome afterwards.
type Hook struct {
	C *Cache

	// Filled in by BeforeSolve.
	Outcome Outcome
	Exact   string

	canon *model.Canon
}

// feasTol is the validation tolerance for cache-served points. It
// matches the solver's own integrality tolerance.
const feasTol = 1e-6

// BeforeSolve implements the exact-hit tier. An entry with the same
// Exact hash encodes the same optimization problem up to variable/row
// permutation. Before its stored point is served, the canonical
// pairing is verified to be a genuine matrix isomorphism with matching
// bounds and objective (verifyIso/regionEqual/sameObjective —
// canonical orders can pair truly symmetric variables arbitrarily, and
// hashes can in principle collide), and the translated point is
// re-verified with model.CheckFeasible. Verification failure falls
// through to a normal solve; a point that fails feasibility after a
// verified pairing is corrupt and the entry is dropped.
func (h *Hook) BeforeSolve(m *model.Model) ([]float64, bool) {
	h.canon = m.Canonicalize()
	h.Exact = h.canon.Exact

	if e := h.C.lookupExact(h.canon.Exact); e != nil {
		if verifyIso(e, h.canon, m) && regionEqual(e, h.canon, m) && sameObjective(e, h.canon, m) {
			if x := mapSolution(e, h.canon, m.LP().NumCols()); x != nil {
				if corruptPoint.Fire() {
					x[e.colOrder[0]] += 0.5
				}
				if m.CheckFeasible(x, feasTol) == nil {
					cHits.Inc()
					h.Outcome = OutcomeHit
					return x, true
				}
			}
			cDrops.Inc()
			h.C.drop(e)
		}
	}

	cMisses.Inc()
	h.Outcome = OutcomeMiss
	return nil, false
}

// AfterSolve populates the cache from a verified optimal solve.
func (h *Hook) AfterSolve(m *model.Model, res *mip.Result) {
	if res == nil || res.Status != mip.Optimal || res.X == nil {
		return
	}
	if h.canon == nil {
		h.canon = m.Canonicalize()
	}
	p := m.LP()
	e := &entry{
		exact:    h.canon.Exact,
		nCols:    p.NumCols(),
		nRows:    p.NumRows(),
		colOrder: append([]int(nil), h.canon.ColOrder...),
		rowOrder: append([]int(nil), h.canon.RowOrder...),
		x:        append([]float64(nil), res.X...),
		colLo:    make([]float64, p.NumCols()),
		colHi:    make([]float64, p.NumCols()),
		rowLo:    make([]float64, p.NumRows()),
		rowHi:    make([]float64, p.NumRows()),
		objCoef:  make([]float64, p.NumCols()),
	}
	for j := 0; j < p.NumCols(); j++ {
		e.colLo[j], e.colHi[j] = p.Bounds(j)
		e.objCoef[j] = p.Obj(j)
	}
	for r := 0; r < p.NumRows(); r++ {
		e.rowLo[r], e.rowHi[r] = p.RowBounds(r)
	}
	e.integer = append([]bool(nil), m.IntegerMask()...)
	rowPos := make([]int, p.NumRows()) // cached row -> canonical position
	for i, r := range h.canon.RowOrder {
		rowPos[r] = i
	}
	e.colSig = make([][]sigNZ, p.NumCols())
	for j := 0; j < p.NumCols(); j++ {
		col := p.Col(j)
		sig := make([]sigNZ, len(col))
		for k, nz := range col {
			sig[k] = sigNZ{rowPos[nz.Row], nz.Val}
		}
		sort.Slice(sig, func(a, b int) bool { return sig[a].pos < sig[b].pos })
		e.colSig[j] = sig
	}
	e.bytes = entryBytes(e)
	h.C.put(e)
}

// verifyIso checks that the pairing induced by the two canonical
// orders is a genuine isomorphism of the constraint matrices: every
// paired column has the same integrality and the same nonzeros at the
// same canonical row positions with bitwise-equal coefficients. Since
// every nonzero of both matrices is covered, passing this check means
// the requesting model's matrix IS the cached matrix up to the paired
// permutation — which is what makes a translated optimum sound even
// when WL colors leave symmetric variables ambiguous or hashes
// collide.
func verifyIso(e *entry, canon *model.Canon, m *model.Model) bool {
	p := m.LP()
	if p.NumCols() != e.nCols || p.NumRows() != e.nRows {
		return false
	}
	if len(e.colSig) != e.nCols || len(e.integer) != e.nCols {
		return false
	}
	if len(canon.ColOrder) != e.nCols || len(canon.RowOrder) != e.nRows {
		return false
	}
	mask := m.IntegerMask()
	rowPos := make([]int, e.nRows) // requester row -> canonical position
	for i, r := range canon.RowOrder {
		rowPos[r] = i
	}
	scratch := make([]sigNZ, 0, 64)
	for i, jNew := range canon.ColOrder {
		jc := e.colOrder[i]
		if mask[jNew] != e.integer[jc] {
			return false
		}
		sig := e.colSig[jc]
		col := p.Col(jNew)
		if len(col) != len(sig) {
			return false
		}
		scratch = scratch[:0]
		for _, nz := range col {
			scratch = append(scratch, sigNZ{rowPos[nz.Row], nz.Val})
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a].pos < scratch[b].pos })
		for k := range sig {
			if scratch[k] != sig[k] {
				return false
			}
		}
	}
	return true
}

// regionEqual reports whether the requesting model's bounds and row
// ranges are bitwise equal to the cached entry's at every matching
// canonical position. Bounds were recorded in cached coordinates, so
// the comparison walks the two canonical orders in lockstep.
func regionEqual(e *entry, canon *model.Canon, m *model.Model) bool {
	p := m.LP()
	if len(e.colLo) != e.nCols || len(e.rowLo) != e.nRows {
		return false
	}
	if p.NumCols() != e.nCols || p.NumRows() != e.nRows {
		return false
	}
	for i, jNew := range canon.ColOrder {
		lo, hi := p.Bounds(jNew)
		jc := e.colOrder[i]
		if lo != e.colLo[jc] || hi != e.colHi[jc] {
			return false
		}
	}
	for i, rNew := range canon.RowOrder {
		lo, hi := p.RowBounds(rNew)
		rc := e.rowOrder[i]
		if lo != e.rowLo[rc] || hi != e.rowHi[rc] {
			return false
		}
	}
	return true
}

// sameObjective reports whether the requesting model's objective
// coefficients equal the cached entry's at every matching canonical
// position (bitwise, like the canonical hash).
func sameObjective(e *entry, canon *model.Canon, m *model.Model) bool {
	p := m.LP()
	if len(e.objCoef) != e.nCols || p.NumCols() != e.nCols {
		return false
	}
	for i, jNew := range canon.ColOrder {
		if p.Obj(jNew) != e.objCoef[e.colOrder[i]] {
			return false
		}
	}
	return true
}

// mapSolution translates a cached point into the requesting model's
// coordinates: canonical position i holds cached column
// e.colOrder[i] and requester column canon.ColOrder[i]. Returns nil on
// any dimension mismatch (possible only under a hash collision).
func mapSolution(e *entry, canon *model.Canon, nCols int) []float64 {
	if e.nCols != nCols || len(e.colOrder) != len(canon.ColOrder) || len(e.x) != nCols {
		return nil
	}
	x := make([]float64, nCols)
	for i, jNew := range canon.ColOrder {
		x[jNew] = e.x[e.colOrder[i]]
	}
	return x
}
