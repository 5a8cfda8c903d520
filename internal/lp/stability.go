package lp

import "fmt"

// StabilityError reports a numerical failure the simplex could not
// recover from on its own. The solver's recovery ladder (DESIGN.md
// §10) retries once from the all-slack crash basis before surfacing
// one: a from-scratch refactorization cannot hit a repair conflict,
// so a returned StabilityError means even the cold restart failed.
// Callers (the branch-and-bound tree) treat it as "this subproblem is
// numerically hopeless", not as a programming error.
type StabilityError struct {
	Stage  string // "refactor" (basis repair conflict) or "residual" (drift re-solve failed)
	Detail string

	// EtaDepth is the number of product-form update etas stacked on
	// the factorization when the failure was detected — the depth of
	// the update file the refactorization was trying to collapse. A
	// large depth points at the update cadence; zero means even a
	// fresh factorization of the basis failed.
	EtaDepth int
}

// Error names the failing stage, the update depth and the detail.
func (e *StabilityError) Error() string {
	return fmt.Sprintf("lp: numerical instability in %s (eta depth %d): %s",
		e.Stage, e.EtaDepth, e.Detail)
}
