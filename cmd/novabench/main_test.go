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
		{Name: "AES", Vars: 7684, Constraints: 10204, ObjTerms: 3627, PresolvedVars: 7544, PresolvedRows: 8758,
			LPIters: 3639, Nodes: 1, Moves: 13, Spills: 0, CodeWords: 393},
		{Name: "Kasumi", Vars: 8631, Constraints: 7533, ObjTerms: 4025, PresolvedVars: 8555, PresolvedRows: 7223,
			LPIters: 3914, Nodes: 3, Moves: 5, Spills: 0, CodeWords: 364},
		{Name: "NAT", Vars: 3619, Constraints: 5472, ObjTerms: 2035, PresolvedVars: 3495, PresolvedRows: 2634,
			LPIters: 1854, Nodes: 63, Moves: 8, Spills: 0, CodeWords: 133},
	}
	checkFig7(t, "Figure 7", f7, want7)

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

// TestFig7Ablation is the golden for the block below Figure 7: the
// same statistics with one model option changed, per program. The
// first three rows are the paper's per-point model; its moves, spills
// and code words equal the coarsened model's. It is kept apart from
// TestPaperTables because its compiles take about half a minute.
func TestFig7Ablation(t *testing.T) {
	if testing.Short() {
		t.Skip("per-point and unpruned ILP compiles take about 30 s")
	}
	rows, err := ablationRows()
	if err != nil {
		t.Fatal(err)
	}
	want := []fig7Row{
		{Name: "AES Coarsen off", Vars: 78518, Constraints: 67295, ObjTerms: 42746, PresolvedVars: 78378, PresolvedRows: 60490,
			LPIters: 33097, Nodes: 1, Moves: 13, Spills: 0, CodeWords: 393},
		{Name: "Kasumi Coarsen off", Vars: 64409, Constraints: 41712, ObjTerms: 37969, PresolvedVars: 64333, PresolvedRows: 40705,
			LPIters: 21329, Nodes: 1, Moves: 5, Spills: 0, CodeWords: 364},
		{Name: "NAT Coarsen off", Vars: 21700, Constraints: 27191, ObjTerms: 10495, PresolvedVars: 21576, PresolvedRows: 19393,
			LPIters: 11043, Nodes: 79, Moves: 8, Spills: 0, CodeWords: 133},
		{Name: "AES Prune off", Vars: 37520, Constraints: 292537, ObjTerms: 16377, PresolvedVars: 37380, PresolvedRows: 285024,
			LPIters: 8514, Nodes: 1, Moves: 13, Spills: 0, CodeWords: 393},
		{Name: "Kasumi Prune off", Vars: 38924, Constraints: 257986, ObjTerms: 17832, PresolvedVars: 38848, PresolvedRows: 255682,
			LPIters: 7667, Nodes: 1, Moves: 5, Spills: 0, CodeWords: 364},
		{Name: "NAT Prune off", Vars: 16115, Constraints: 79527, ObjTerms: 8338, PresolvedVars: 15991, PresolvedRows: 72095,
			LPIters: 16269, Nodes: 889, Moves: 8, Spills: 0, CodeWords: 133},
		{Name: "AES RedundantAggregate off", Vars: 7684, Constraints: 10126, ObjTerms: 3627, PresolvedVars: 7583, PresolvedRows: 9320,
			LPIters: 3706, Nodes: 1, Moves: 13, Spills: 0, CodeWords: 393},
		{Name: "Kasumi RedundantAggregate off", Vars: 8631, Constraints: 7499, ObjTerms: 4025, PresolvedVars: 8572, PresolvedRows: 7333,
			LPIters: 3961, Nodes: 3, Moves: 5, Spills: 0, CodeWords: 364},
		{Name: "NAT RedundantAggregate off", Vars: 3619, Constraints: 5380, ObjTerms: 2035, PresolvedVars: 3513, PresolvedRows: 2845,
			LPIters: 1716, Nodes: 47, Moves: 8, Spills: 0, CodeWords: 133},
		{Name: "AES BiasAB off", Vars: 7684, Constraints: 10204, ObjTerms: 2688, PresolvedVars: 7544, PresolvedRows: 8758,
			LPIters: 4128, Nodes: 1, Moves: 13, Spills: 0, CodeWords: 393},
		{Name: "Kasumi BiasAB off", Vars: 8631, Constraints: 7533, ObjTerms: 3053, PresolvedVars: 8555, PresolvedRows: 7223,
			LPIters: 4590, Nodes: 0, Moves: 5, Spills: 0, CodeWords: 364},
		{Name: "NAT BiasAB off", Vars: 3619, Constraints: 5472, ObjTerms: 1666, PresolvedVars: 3495, PresolvedRows: 2634,
			LPIters: 1824, Nodes: 123, Moves: 8, Spills: 0, CodeWords: 133},
		{Name: "AES Remat on", Vars: 7188, Constraints: 9801, ObjTerms: 3427, PresolvedVars: 6950, PresolvedRows: 8257,
			LPIters: 3067, Nodes: 1, Moves: 13, Spills: 0, CodeWords: 393},
		{Name: "Kasumi Remat on", Vars: 8220, Constraints: 7192, ObjTerms: 3859, PresolvedVars: 8063, PresolvedRows: 6801,
			LPIters: 3510, Nodes: 0, Moves: 5, Spills: 0, CodeWords: 364},
		{Name: "NAT Remat on", Vars: 3426, Constraints: 5250, ObjTerms: 1949, PresolvedVars: 3266, PresolvedRows: 2440,
			LPIters: 1441, Nodes: 53, Moves: 8, Spills: 0, CodeWords: 133},
		{Name: "AES NoSpill Gap 0.99", Vars: 6188, Constraints: 9407, ObjTerms: 2511, PresolvedVars: 6048, PresolvedRows: 8045,
			LPIters: 3197, Nodes: 1, Moves: 13, Spills: 0, CodeWords: 393},
		{Name: "Kasumi NoSpill Gap 0.99", Vars: 6852, Constraints: 6889, ObjTerms: 2710, PresolvedVars: 6776, PresolvedRows: 6579,
			LPIters: 3555, Nodes: 0, Moves: 5, Spills: 0, CodeWords: 364},
		{Name: "NAT NoSpill Gap 0.99", Vars: 2622, Constraints: 5161, ObjTerms: 1277, PresolvedVars: 2498, PresolvedRows: 2323,
			LPIters: 1182, Nodes: 8, Moves: 9, Spills: 0, CodeWords: 134},
	}
	checkFig7(t, "ablation", rows, want)
}

// checkFig7 compares rows with want, wall times aside.
func checkFig7(t *testing.T, what string, rows, want []fig7Row) {
	t.Helper()
	for i := range rows {
		rows[i].Root, rows[i].Total = 0, 0
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", what, rows, want)
	}
}
