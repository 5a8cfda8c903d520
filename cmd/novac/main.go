// Novac is the Nova compiler driver: it runs the full pipeline —
// parse, type check, CPS conversion, optimization, SSU, instruction
// selection, ILP register/bank allocation, coloring, and assembly
// emission — over one .nova file and prints the requested artifacts.
//
// Usage:
//
//	novac [-entry main] [-print cps|mir|asm] [-stats] [-no-prune]
//	      [-no-coarsen] [-remat] [-presolve=false]
//	      [-solve-timeout 4m] [-fallback auto|off|force]
//	      [-mps out.mps] [-fault spec]
//	      [-trace out.json] file.nova
//
// -stats prints per-phase wall time and the solver/simulator counters
// collected during the compile; -trace writes the same window as a
// Chrome trace_event file loadable in Perfetto (see DESIGN.md §8).
package main

import (
	"flag"
	"fmt"
	"os"
	"repro/internal/ast"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/obs"
)

func main() {
	entry := flag.String("entry", "main", "entry function")
	print := flag.String("print", "asm", "artifact to print: ast, cps, mir, asm, none")
	stats := flag.Bool("stats", false, "print per-phase statistics")
	noPrune := flag.Bool("no-prune", false, "disable §8 bank pruning")
	noCoarsen := flag.Bool("no-coarsen", false, "use the per-point (paper-exact) move model")
	remat := flag.Bool("remat", false, "enable the §12 constant bank C")
	timeout := flag.Duration("solve-timeout", 4*time.Minute, "ILP solve budget")
	fallbackMode := flag.String("fallback", "auto", "greedy fallback allocator policy: auto, off, force")
	faultSpec := flag.String("fault", "", "fault-injection plan, e.g. 'mip/worker_panic@1,lp/refactor_fail@1' (testing)")
	jobs := flag.Int("j", 0, "parallel ILP search workers (0 = all cores)")
	presolve := flag.Bool("presolve", true, "ILP presolve reductions before the solve")
	mpsOut := flag.String("mps", "", "write the generated integer program to this file (MPS format, canonical naming)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file of the compile to this path")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: novac [flags] file.nova")
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := nova.DefaultOptions()
	opts.Entry = *entry
	opts.Alloc.Prune = !*noPrune
	opts.Alloc.Coarsen = !*noCoarsen
	opts.Alloc.Remat = *remat
	switch *fallbackMode {
	case "auto":
		opts.Alloc.Fallback = core.FallbackAuto
	case "off":
		opts.Alloc.Fallback = core.FallbackOff
	case "force":
		opts.Alloc.Fallback = core.FallbackForce
	default:
		fmt.Fprintf(os.Stderr, "unknown -fallback %q (want auto, off, or force)\n", *fallbackMode)
		os.Exit(2)
	}
	opts.MIP = &mip.Options{Time: *timeout, Workers: *jobs}
	if !*presolve {
		opts.MIP.Presolve = -1
	}
	if *faultSpec != "" {
		plan, err := fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fault.Install(plan)
	}

	// -stats and -trace both observe the compile through one recorder
	// window (DESIGN.md §8); spans cost nothing when neither is given.
	var rec *obs.Recorder
	if *stats || *traceOut != "" {
		rec = obs.Start("novac " + path)
	}
	start := time.Now()
	comp, err := nova.Compile(path, string(src), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if rec != nil {
		obs.Stop()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	if *mpsOut != "" {
		f, err := os.Create(*mpsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := comp.Alloc.WriteMPS(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
	if *stats {
		st := comp.Static
		fmt.Printf("static: %d lines, %d layouts, %d pack, %d unpack, %d raise, %d handle\n",
			st.Lines, st.Layouts, st.Packs, st.Unpacks, st.Raises, st.Handles)
		fmt.Printf("opt: %v\n", comp.OptStats)
		fmt.Printf("ssu: %d clones inserted\n", comp.SSUStats.Clones)
		fmt.Printf("mir: %d instructions, %d temporaries\n",
			comp.MIR.NumInstrs(), comp.MIR.NumTemps())
		ms := comp.Alloc.ModelStats
		fmt.Printf("ilp: %d variables, %d constraints, %d objective terms\n",
			ms.Vars, ms.Constraints, ms.ObjTerms)
		if ps := ms.Presolve; ps != nil {
			fmt.Printf("presolve: fixed %d variables, dropped %d rows (%d rounds)\n",
				ps.FixedVars, ps.DroppedRows, ps.Rounds)
		}
		root, total := comp.Alloc.SolveTimes()
		alloc := "ilp"
		if comp.Alloc.Fallback {
			alloc = "greedy fallback"
		}
		fmt.Printf("solve: root %v, integer %v (%v, %s), %d nodes\n",
			root.Round(time.Millisecond), total.Round(time.Millisecond),
			comp.Alloc.MIP.Status, alloc, comp.Alloc.MIP.Nodes)
		fmt.Printf("solution: %d moves, %d spills, %d rematerializations, %d coalesced\n",
			comp.Alloc.NumMoves(), comp.Alloc.Spills, comp.Alloc.Remats, comp.Assign.Coalesced)
		fmt.Printf("code: %d instruction words\n", comp.Asm.CodeWords())
		fmt.Printf("compile time: %v\n", elapsed.Round(time.Millisecond))
		rec.WriteText(os.Stdout)
	}
	switch *print {
	case "ast":
		fmt.Print(ast.Print(comp.AST))
	case "cps":
		fmt.Print(comp.CPS.String())
	case "mir":
		fmt.Print(comp.MIR.String())
	case "asm":
		fmt.Print(comp.Asm.String())
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "unknown -print %q\n", *print)
		os.Exit(2)
	}
}
