package mip

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/lp"
)

// randomZeroOne builds a seeded random 0-1 program of the shape the
// exhaustive cross-check uses, a little larger.
func randomZeroOne(rng *rand.Rand) *lp.Problem {
	n := 6 + rng.Intn(10)
	m := 3 + rng.Intn(6)
	p := lp.NewProblem()
	cols := make([]int, n)
	for j := 0; j < n; j++ {
		cols[j] = p.AddCol(float64(rng.Intn(11)-5), 0, 1)
	}
	for r := 0; r < m; r++ {
		var rc []int
		var rv []float64
		for j := 0; j < n; j++ {
			if v := float64(rng.Intn(5) - 2); v != 0 {
				rc = append(rc, j)
				rv = append(rv, v)
			}
		}
		switch rng.Intn(3) {
		case 0:
			p.AddRow(math.Inf(-1), float64(rng.Intn(5)-1), rc, rv)
		case 1:
			p.AddRow(float64(-rng.Intn(3)), math.Inf(1), rc, rv)
		default:
			v := float64(rng.Intn(3))
			p.AddRow(v, v, rc, rv)
		}
	}
	return p
}

// TestWorkersEquivalence: Workers=8 must reach the same status as
// Workers=1 and an objective equal within the optimality gap, on a
// suite of seeded random 0-1 programs.
func TestWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		p := randomZeroOne(rng)
		serial, err := Solve(p, nil, &Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		par, err := Solve(p, nil, &Options{Workers: 8})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if serial.Status != par.Status {
			t.Fatalf("trial %d: serial %v vs parallel %v", trial, serial.Status, par.Status)
		}
		if serial.Status != Optimal {
			continue
		}
		tol := 1e-4*math.Max(1, math.Abs(serial.Obj)) + 1e-9
		if math.Abs(serial.Obj-par.Obj) > tol {
			t.Fatalf("trial %d: serial obj %v vs parallel obj %v (tol %v)", trial, serial.Obj, par.Obj, tol)
		}
		if !feasible(p, allInteger(p), par.X, 1e-5, nil) {
			t.Fatalf("trial %d: parallel incumbent infeasible", trial)
		}
	}
}

// TestWorkersVsExhaustive: the parallel search against brute force, so
// parallelism cannot hide a wrong incumbent or a wrong bound proof.
func TestWorkersVsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(5)
		p := lp.NewProblem()
		obj := make([]float64, n)
		for j := 0; j < n; j++ {
			obj[j] = float64(rng.Intn(11) - 5)
			p.AddCol(obj[j], 0, 1)
		}
		A := make([][]float64, m)
		rowLo := make([]float64, m)
		rowHi := make([]float64, m)
		for r := 0; r < m; r++ {
			A[r] = make([]float64, n)
			var rc []int
			var rv []float64
			for j := 0; j < n; j++ {
				v := float64(rng.Intn(5) - 2)
				A[r][j] = v
				if v != 0 {
					rc = append(rc, j)
					rv = append(rv, v)
				}
			}
			switch rng.Intn(3) {
			case 0:
				rowLo[r], rowHi[r] = math.Inf(-1), float64(rng.Intn(5)-1)
			case 1:
				rowLo[r], rowHi[r] = float64(-rng.Intn(3)), math.Inf(1)
			default:
				v := float64(rng.Intn(3))
				rowLo[r], rowHi[r] = v, v
			}
			p.AddRow(rowLo[r], rowHi[r], rc, rv)
		}
		res, err := Solve(p, nil, &Options{Workers: 4})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for r := 0; r < m && ok; r++ {
				ax := 0.0
				for j := 0; j < n; j++ {
					if mask>>j&1 == 1 {
						ax += A[r][j]
					}
				}
				if ax < rowLo[r]-1e-9 || ax > rowHi[r]+1e-9 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			v := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					v += obj[j]
				}
			}
			if v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible, solver %v", trial, res.Status)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v (brute force %v)", trial, res.Status, best)
		}
		if math.Abs(res.Obj-best) > 1e-4*math.Max(1, math.Abs(best)) {
			t.Fatalf("trial %d: solver obj %v, brute force %v", trial, res.Obj, best)
		}
	}
}

// TestWorkerPoolStress hammers the worker pool — meant to run under
// -race. Concurrent Solve calls on a shared problem also exercise the
// no-mutation guarantee.
func TestWorkerPoolStress(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomZeroOne(rng)
	ref, err := Solve(p, nil, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				res, err := Solve(p, nil, &Options{Workers: 8})
				if err != nil {
					errs <- err
					return
				}
				if res.Status != ref.Status {
					t.Errorf("status %v, want %v", res.Status, ref.Status)
					return
				}
				if ref.Status == Optimal {
					tol := 1e-4*math.Max(1, math.Abs(ref.Obj)) + 1e-9
					if math.Abs(res.Obj-ref.Obj) > tol {
						t.Errorf("obj %v, want %v", res.Obj, ref.Obj)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHeuristicSerialized: with Workers > 1 the Heuristic hook must
// never run concurrently with itself.
func TestHeuristicSerialized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomZeroOne(rng)
	var mu sync.Mutex
	inside := false
	opts := &Options{
		Workers: 8,
		Heuristic: func(x []float64) ([]float64, bool) {
			mu.Lock()
			if inside {
				mu.Unlock()
				t.Error("heuristic re-entered concurrently")
				return nil, false
			}
			inside = true
			mu.Unlock()
			mu.Lock()
			inside = false
			mu.Unlock()
			return nil, false
		},
	}
	if _, err := Solve(p, nil, opts); err != nil {
		t.Fatal(err)
	}
}

// TestSolveDoesNotMutateProblem: the parallel engine searches clones;
// the caller's problem must come back bit-identical.
func TestSolveDoesNotMutateProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randomZeroOne(rng)
	type b struct{ lo, hi, obj float64 }
	before := make([]b, p.NumCols())
	for j := range before {
		lo, hi := p.Bounds(j)
		before[j] = b{lo, hi, p.Obj(j)}
	}
	if _, err := Solve(p, nil, &Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for j, want := range before {
		lo, hi := p.Bounds(j)
		if lo != want.lo || hi != want.hi || p.Obj(j) != want.obj {
			t.Fatalf("column %d mutated: [%v,%v] obj %v, want [%v,%v] obj %v",
				j, lo, hi, p.Obj(j), want.lo, want.hi, want.obj)
		}
	}
}
