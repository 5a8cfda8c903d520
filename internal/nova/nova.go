// Package nova is the compiler pipeline facade: Nova source text in,
// allocated IXP assembly out, with every intermediate form and the
// per-phase statistics the paper's evaluation tabulates (Figures 5-7).
package nova

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
	"repro/internal/isel"
	"repro/internal/mip"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/ssu"
	"repro/internal/types"
)

// Options configures a compilation.
type Options struct {
	Entry   string // entry function; default "main"
	Alloc   core.Options
	MIP     *mip.Options
	Workers int // ILP tree-search workers; 0 = mip default (GOMAXPROCS)
}

// DefaultOptions compiles like the paper's evaluation.
func DefaultOptions() Options {
	return Options{Entry: "main", Alloc: core.DefaultOptions()}
}

// spillBase is the scratch word address of spill slot 0.
const spillBase = 0x300

// StaticStats are the Figure 5 program statistics.
type StaticStats struct {
	Lines   int // wc-style line count, whitespace and comments included
	Layouts int // layout specifications
	Packs   int
	Unpacks int
	Raises  int
	Handles int
}

// Compilation bundles every product of the pipeline.
type Compilation struct {
	File   *source.File
	AST    *ast.Program
	Info   *types.Info
	CPS    *cps.Program
	MIR    *mir.Program
	Alloc  *core.Result
	Assign *core.Assignment
	Asm    *asm.Program

	Static   StaticStats
	OptStats *opt.Stats
	SSUStats *ssu.Stats
}

// Compile runs the full pipeline. Diagnostics are returned as an error
// built from the source positions.
func Compile(name, src string, opts Options) (*Compilation, error) {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.Workers != 0 {
		// Copy before overriding so a caller-shared mip.Options value is
		// not mutated.
		m := mip.Options{}
		if opts.MIP != nil {
			m = *opts.MIP
		}
		m.Workers = opts.Workers
		opts.MIP = &m
	}
	f := source.NewFile(name, src)
	errs := source.NewErrorList(f)
	c := &Compilation{File: f}

	// Every pipeline stage runs under a phase/ span (DESIGN.md §8); the
	// enclosing phase/compile span is what the -trace coverage check
	// measures against.
	total := obs.StartSpan("phase/compile")
	defer total.End()

	sp := obs.StartSpan("phase/parse")
	c.AST = parser.Parse(f, errs)
	sp.End()
	if errs.HasErrors() {
		return nil, errs
	}
	c.Static = staticStats(src, c.AST)

	sp = obs.StartSpan("phase/typecheck")
	c.Info = types.Check(c.AST, errs)
	sp.End()
	if errs.HasErrors() {
		return nil, errs
	}
	sp = obs.StartSpan("phase/cps")
	c.CPS = cps.Convert(c.Info, opts.Entry, errs)
	sp.End()
	if errs.HasErrors() {
		return nil, errs
	}
	sp = obs.StartSpan("phase/opt")
	c.OptStats = opt.Optimize(c.CPS)
	sp.End()
	sp = obs.StartSpan("phase/ssu")
	c.SSUStats = ssu.Transform(c.CPS)
	sp.End()
	sp = obs.StartSpan("phase/isel")
	c.MIR = isel.Select(c.CPS)
	sp.End()

	sp = obs.StartSpan("phase/alloc")
	alloc, err := core.Allocate(c.MIR, opts.Alloc, opts.MIP)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.Alloc = alloc
	sp = obs.StartSpan("phase/verify")
	err = core.Verify(alloc)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sp = obs.StartSpan("phase/assign")
	asn, err := alloc.AssignRegisters()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.Assign = asn
	sp = obs.StartSpan("phase/emit")
	prog, err := asm.Emit(c.MIR, alloc, asn, spillBase)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.Asm = prog
	return c, nil
}

// StaticStatsOf parses a program and returns its Figure 5 statistics
// without running the rest of the pipeline.
func StaticStatsOf(name, src string) (StaticStats, error) {
	f := source.NewFile(name, src)
	errs := source.NewErrorList(f)
	prog := parser.Parse(f, errs)
	if errs.HasErrors() {
		return StaticStats{}, errs
	}
	return staticStats(src, prog), nil
}

// staticStats computes the Figure 5 columns from source + AST.
func staticStats(src string, prog *ast.Program) StaticStats {
	st := StaticStats{Lines: strings.Count(src, "\n") + 1}
	var walkExpr func(e ast.Expr)
	var walkBlock func(b *ast.Block)
	var walkStmt func(s ast.Stmt)
	walkExpr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.UnaryExpr:
			walkExpr(e.X)
		case *ast.BinaryExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *ast.CallExpr:
			walkExpr(e.Callee)
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *ast.CallNamedExpr:
			walkExpr(e.Callee)
			for _, fx := range e.Fields {
				walkExpr(fx.X)
			}
		case *ast.RecordExpr:
			for _, fx := range e.Fields {
				walkExpr(fx.X)
			}
		case *ast.TupleExpr:
			for _, x := range e.Elems {
				walkExpr(x)
			}
		case *ast.SelectExpr:
			walkExpr(e.X)
		case *ast.ProjExpr:
			walkExpr(e.X)
		case *ast.IfExpr:
			walkExpr(e.Cond)
			walkExpr(e.Then)
			if e.Else != nil {
				walkExpr(e.Else)
			}
		case *ast.BlockExpr:
			walkBlock(e.B)
		case *ast.RaiseExpr:
			st.Raises++
			for _, a := range e.Args {
				walkExpr(a)
			}
			for _, fx := range e.Fields {
				walkExpr(fx.X)
			}
		case *ast.TryExpr:
			walkBlock(e.Body)
			for i := range e.Handlers {
				st.Handles++
				walkBlock(e.Handlers[i].Body)
			}
		case *ast.UnpackExpr:
			st.Unpacks++
			walkExpr(e.X)
		case *ast.PackExpr:
			st.Packs++
			for _, fx := range e.Fields {
				walkExpr(fx.X)
			}
		case *ast.IntrinsicExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.LetStmt:
			walkExpr(s.X)
		case *ast.ExprStmt:
			walkExpr(s.X)
		case *ast.StoreStmt:
			walkExpr(s.Addr)
			for _, v := range s.Values {
				walkExpr(v)
			}
		case *ast.WhileStmt:
			walkExpr(s.Cond)
			walkBlock(s.Body)
		case *ast.ReturnStmt:
			if s.X != nil {
				walkExpr(s.X)
			}
		case *ast.FunStmt:
			walkBlock(s.Fun.Body)
		}
	}
	walkBlock = func(b *ast.Block) {
		for _, s := range b.Stmts {
			walkStmt(s)
		}
		if b.Result != nil {
			walkExpr(b.Result)
		}
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.LayoutDecl:
			st.Layouts++
		case *ast.FunDecl:
			walkBlock(d.Body)
		case *ast.ConstDecl:
			walkExpr(d.X)
		}
	}
	return st
}

// EntryRegs returns the physical registers holding the entry
// function's parameters at program start, in parameter order.
func (c *Compilation) EntryRegs() ([]asm.Reg, error) {
	if c.Assign == nil {
		return nil, fmt.Errorf("nova: compilation has no register assignment")
	}
	entry := c.MIR.Blocks[0]
	regs := make([]asm.Reg, len(entry.Params))
	for i, pv := range entry.Params {
		l, ok := c.Assign.LocBefore(pv, 0)
		if !ok {
			// The parameter is dead; any register will do.
			regs[i] = asm.Reg{Bank: core.A, Idx: 0}
			continue
		}
		regs[i] = asm.Reg{Bank: l.Bank, Idx: l.Reg}
	}
	return regs, nil
}
