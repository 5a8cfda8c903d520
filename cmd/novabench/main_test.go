package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nova"
)

// TestPaperTables is the golden for the paper's §11 results: every
// deterministic value novabench prints, per program — Figure 5's
// static statistics, Figure 6's aggregate counts, Figure 7's model
// size before and after presolve, simplex iterations and B&B nodes at
// one search worker, moves, spills and code words, and the raw cycles
// of every simulated batch. A change to the solver, the model builder,
// the code generator or the simulator that moves one of them fails
// here; a change meant to move them updates the table and says why.
func TestPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full ILP compilation takes minutes")
	}

	f5, err := fig5Rows()
	if err != nil {
		t.Fatal(err)
	}
	want5 := []nova.StaticStats{ // AES, Kasumi, NAT
		{Lines: 113, Layouts: 3, Packs: 0, Unpacks: 2, Raises: 4, Handles: 2},
		{Lines: 123, Layouts: 2, Packs: 0, Unpacks: 2, Raises: 4, Handles: 2},
		{Lines: 85, Layouts: 3, Packs: 2, Unpacks: 1, Raises: 4, Handles: 3},
	}
	if !reflect.DeepEqual(f5, want5) {
		t.Errorf("Figure 5:\n got %+v\nwant %+v", f5, want5)
	}

	f6, err := fig6Rows()
	if err != nil {
		t.Fatal(err)
	}
	want6 := []core.AggStats{
		{DefL: 44, DefLD: 12, UseS: 0, UseSD: 6},
		{DefL: 28, DefLD: 10, UseS: 0, UseSD: 4},
		{DefL: 0, DefLD: 12, UseS: 0, UseSD: 8},
	}
	if !reflect.DeepEqual(f6, want6) {
		t.Errorf("Figure 6:\n got %+v\nwant %+v", f6, want6)
	}

	f7, err := fig7Rows()
	if err != nil {
		t.Fatal(err)
	}
	want7 := []fig7Row{
		{Vars: 7684, Constraints: 10208, ObjTerms: 3627, PresolvedVars: 7544, PresolvedRows: 8762,
			LPIters: 3645, Nodes: 1, Moves: 13, Spills: 0, CodeWords: 393},
		{Vars: 8631, Constraints: 7557, ObjTerms: 4025, PresolvedVars: 8555, PresolvedRows: 7243,
			LPIters: 3946, Nodes: 3, Moves: 5, Spills: 0, CodeWords: 364},
		{Vars: 3619, Constraints: 5472, ObjTerms: 2035, PresolvedVars: 3495, PresolvedRows: 2634,
			LPIters: 1859, Nodes: 63, Moves: 8, Spills: 0, CodeWords: 133},
	}
	for i := range f7 {
		f7[i].Root, f7[i].Total = 0, 0 // wall times
	}
	if !reflect.DeepEqual(f7, want7) {
		t.Errorf("Figure 7:\n got %+v\nwant %+v", f7, want7)
	}

	tp, err := throughputRows()
	if err != nil {
		t.Fatal(err)
	}
	wantTP := &throughputTable{
		Rows: []throughputRow{
			{"AES", 16, 6311, 8992},
			{"AES", 64, 24230, 34439},
			{"AES", 256, 95906, 133991},
			{"Kasumi", 8, 5795, 5957},
			{"Kasumi", 16, 11306, 11472},
			{"Kasumi", 256, 175691, 177074},
			{"NAT", 64, 1072, 2135},
			{"NAT", 256, 2608, 6743},
		},
		Scaling: []int64{24230, 24265, 25308, 34439}, // 1, 2, 4, 6 engines
		Hiding:  []int64{19214, 20304, 24230},        // 1, 2, 4 threads
	}
	if !reflect.DeepEqual(tp, wantTP) {
		t.Errorf("throughput:\n got %+v\nwant %+v", tp, wantTP)
	}
}
