package mip

import (
	"math"
	"math/rand"

	"repro/internal/lp"
)

// MultiKnapsack builds a correlated multi-dimensional 0-1 knapsack — n
// binary items, m capacity rows, values tied to weights so the LP bound
// is weak and branch and bound must open a real tree. It is the scaling
// workload behind BenchmarkMIPScaling; it lives outside the test files
// because the tests of other packages (cache, model, workloads) build
// the identical instance.
func MultiKnapsack(n, m int, seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	weights := make([][]float64, m)
	for r := range weights {
		weights[r] = make([]float64, n)
	}
	cols := make([]int, n)
	for j := 0; j < n; j++ {
		base := float64(10 + rng.Intn(50))
		// Maximize value (minimize the negation), value ≈ total weight.
		value := base*float64(m) + float64(rng.Intn(10))
		cols[j] = p.AddCol(-value, 0, 1)
		for r := 0; r < m; r++ {
			weights[r][j] = base + float64(rng.Intn(10))
		}
	}
	for r := 0; r < m; r++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += weights[r][j]
		}
		p.AddRow(math.Inf(-1), math.Floor(sum/2), cols, weights[r])
	}
	return p
}
