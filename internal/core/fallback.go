package core

import (
	"fmt"
	"math"

	"repro/internal/mip"
	"repro/internal/obs"
)

// cFallback counts allocations delivered by the greedy fallback
// instead of the ILP (DESIGN.md §10).
var cFallback = obs.NewCounter("alloc/fallback")

// FallbackMode selects what Allocate does when the ILP cannot deliver
// a usable solution (solver error, numerically-induced infeasibility,
// or a budget hit with no incumbent).
type FallbackMode int

// Fallback modes.
const (
	// FallbackAuto (the default) runs the greedy allocator whenever the
	// ILP fails; a genuine infeasibility (the greedy allocator cannot
	// place the program either) still surfaces as an error.
	FallbackAuto FallbackMode = iota
	// FallbackOff surfaces every solver failure as an error.
	FallbackOff
	// FallbackForce skips the ILP entirely and allocates greedily —
	// the paper's baseline-quality path, used for testing and as an
	// escape hatch when solve time is unaffordable.
	FallbackForce
)

// fallbackOrders are the bank-preference lists the greedy allocator
// tries, most-desirable compute placement first and spill-everything
// last. The final M-first order is the guarantee: scratch memory has
// no capacity constraint and every non-C bank pair is connected by a
// physical move path, so whenever the program is placeable at all the
// spill-heavy assignment verifies.
var fallbackOrders = [][]Bank{
	{A, B, L, LD, S, SD, C, M},
	{B, A, L, LD, S, SD, C, M},
	{L, LD, S, SD, A, B, C, M},
	{M, A, B, L, LD, S, SD, C}, // spill-everything residue
}

// fallback is the guaranteed-fallback allocator: for each preference
// order it assigns every web the first bank its allowed set permits,
// then reuses the ILP completion heuristic (pair repair, combinatorial
// coloring, derived-column fill) to turn the assignment into a full
// model point, verifies that point against every model row, and keeps
// the cheapest verified candidate. The result is exactly the shape a
// budget-limited ILP solve produces — an unproven incumbent — so the
// extraction and simulation pipeline downstream needs no special case.
func (il *ilp) fallback() (*mip.Result, error) {
	sp := obs.StartSpan("phase/alloc/fallback")
	defer sp.End()
	g := il.g
	n := il.m.LP().NumCols()
	var bestX []float64
	bestObj := math.Inf(1)
	for _, order := range fallbackOrders {
		x := make([]float64, n)
		placed := true
		for _, r := range il.roots {
			chosen := Bank(-1)
			for _, b := range order {
				if g.locAllow[r].has(b) {
					chosen = b
					break
				}
			}
			if chosen < 0 {
				placed = false
				break
			}
			x[il.posCol[r][chosen]] = 1
		}
		if !placed {
			continue
		}
		cand, ok := il.heuristic(x)
		if !ok || il.m.CheckFeasible(cand, 1e-6) != nil {
			continue
		}
		if obj := il.m.Objective(cand); obj < bestObj {
			bestX, bestObj = cand, obj
		}
	}
	if bestX == nil {
		return nil, fmt.Errorf("core: greedy fallback found no feasible allocation")
	}
	cFallback.Inc()
	// An unproven incumbent: NodeLimit is the budget-style status, and
	// a -Inf root bound records that no relaxation was solved.
	return &mip.Result{
		Status:  mip.NodeLimit,
		X:       bestX,
		Obj:     bestObj,
		RootObj: math.Inf(-1),
	}, nil
}
