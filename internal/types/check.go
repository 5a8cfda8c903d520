package types

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/layout"
	"repro/internal/source"
)

// Never is the type of expressions that do not return normally (raise).
// It unifies with every type; it never appears in a well-typed value.
type Never struct{}

func (Never) typ()           {}
func (Never) String() string { return "never" }

// Object is what a name can denote.
type Object interface{ obj() }

// VarObj is a local binding or parameter.
type VarObj struct {
	Name string
	Type Type
}

// FunObj is a function declaration.
type FunObj struct {
	Decl *ast.FunDecl
	Type Arrow
}

// ExnObj is an exception introduced by a try-handle block.
type ExnObj struct {
	Name string
	Type Exn
	Decl *ast.Handler
}

// ConstObj is a top-level compile-time constant.
type ConstObj struct {
	Name  string
	Value uint32
}

func (*VarObj) obj()   {}
func (*FunObj) obj()   {}
func (*ExnObj) obj()   {}
func (*ConstObj) obj() {}

// Info is the result of type checking: per-node types, resolved
// layouts, and use-def links consumed by the CPS converter.
type Info struct {
	Types     map[ast.Expr]Type
	Layouts   map[ast.Node]*layout.Layout
	Uses      map[*ast.VarRef]Object
	Funs      map[*ast.FunDecl]*FunObj
	Exns      map[*ast.Handler]*ExnObj
	Consts    map[string]uint32
	LayoutEnv layout.MapEnv
	Program   *ast.Program
}

// TypeOf returns the checked type of e.
func (info *Info) TypeOf(e ast.Expr) Type { return info.Types[e] }

// Check type-checks a whole program. Diagnostics go to errs; the
// returned Info is usable iff errs has no errors.
func Check(prog *ast.Program, errs *source.ErrorList) *Info {
	c := &checker{
		errs: errs,
		info: &Info{
			Types:     make(map[ast.Expr]Type),
			Layouts:   make(map[ast.Node]*layout.Layout),
			Uses:      make(map[*ast.VarRef]Object),
			Funs:      make(map[*ast.FunDecl]*FunObj),
			Exns:      make(map[*ast.Handler]*ExnObj),
			Consts:    make(map[string]uint32),
			LayoutEnv: layout.MapEnv{},
			Program:   prog,
		},
	}
	c.push()
	// Layouts and constants first, then function signatures (top-level
	// functions are mutually visible), then bodies.
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.LayoutDecl:
			l, err := layout.Resolve(d.Body, c.info.LayoutEnv)
			if err != nil {
				c.errs.Errorf(d.Sp, "%v", err)
				l = &layout.Layout{}
			}
			if _, dup := c.info.LayoutEnv[d.Name]; dup {
				c.errs.Errorf(d.Sp, "layout %q redeclared", d.Name)
			}
			c.info.LayoutEnv[d.Name] = l
		case *ast.ConstDecl:
			v, ok := c.constEval(d.X)
			if !ok {
				c.errs.Errorf(d.X.Span(), "constant %q must be a compile-time word expression", d.Name)
			}
			c.bind(d.Name, &ConstObj{Name: d.Name, Value: v}, d.Sp)
			c.info.Consts[d.Name] = v
		}
	}
	var funs []*ast.FunDecl
	for _, d := range prog.Decls {
		if fd, ok := d.(*ast.FunDecl); ok {
			funs = append(funs, fd)
			c.declareFun(fd)
		}
	}
	for _, fd := range funs {
		c.checkFunBody(fd)
	}
	c.checkTailCycles()
	return c.info
}

type checker struct {
	errs   *source.ErrorList
	info   *Info
	scopes []map[string]Object
	// open is the stack of functions whose bodies are currently being
	// checked; the top is the caller of any call edge encountered.
	open []*ast.FunDecl
	// calls is the call graph, used by checkTailCycles to enforce the
	// tail-recursion restriction (§3.1).
	calls []callEdge
}

type callEdge struct {
	from, to *ast.FunDecl
	tail     bool
	sp       source.Span
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]Object{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }
func (c *checker) bind(name string, o Object, sp source.Span) {
	top := c.scopes[len(c.scopes)-1]
	top[name] = o // shadowing within a block is allowed (let rebinding)
	_ = sp
}

func (c *checker) lookup(name string) (Object, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if o, ok := c.scopes[i][name]; ok {
			return o, true
		}
	}
	return nil, false
}

// resolveType elaborates a syntactic type.
func (c *checker) resolveType(t ast.TypeExpr) Type {
	switch t := t.(type) {
	case nil:
		return Unit
	case *ast.WordType:
		return Word{}
	case *ast.BoolType:
		return Bool{}
	case *ast.WordArrayType:
		return WordTuple(t.N)
	case *ast.TupleType:
		elems := make([]Type, len(t.Elems))
		for i, e := range t.Elems {
			elems[i] = c.resolveType(e)
		}
		return Tuple{Elems: elems}
	case *ast.RecordType:
		fields := make([]Field, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = Field{Name: f.Name, Type: c.resolveType(f.Type)}
		}
		return Record{Fields: fields}
	case *ast.ArrowType:
		params := make([]Field, len(t.Params))
		for i, p := range t.Params {
			params[i] = Field{Type: c.resolveType(p)}
		}
		return Arrow{Params: params, Result: c.resolveType(t.Result)}
	case *ast.ExnType:
		params := make([]Field, len(t.Params))
		for i, p := range t.Params {
			typ := c.resolveType(p.Type)
			if p.Type == nil {
				typ = Word{}
			}
			params[i] = Field{Name: p.Name, Type: typ}
		}
		return Exn{Params: params, Named: t.Named}
	case *ast.PackedType:
		l := c.resolveLayout(t.Layout)
		c.info.Layouts[t] = l
		return Packed{L: l}
	case *ast.UnpackedType:
		l := c.resolveLayout(t.Layout)
		c.info.Layouts[t] = l
		return Unpacked{L: l}
	}
	c.errs.Errorf(t.Span(), "unsupported type expression %T", t)
	return Word{}
}

func (c *checker) resolveLayout(e ast.LayoutExpr) *layout.Layout {
	l, err := layout.Resolve(e, c.info.LayoutEnv)
	if err != nil {
		c.errs.Errorf(e.Span(), "%v", err)
		return &layout.Layout{}
	}
	return l
}

func (c *checker) declareFun(fd *ast.FunDecl) *FunObj {
	params := make([]Field, len(fd.Params))
	for i, p := range fd.Params {
		typ := c.resolveType(p.Type)
		if p.Type == nil {
			c.errs.Errorf(p.Sp, "parameter %q needs a type annotation", p.Name)
			typ = Word{}
		}
		params[i] = Field{Name: p.Name, Type: typ}
	}
	o := &FunObj{Decl: fd, Type: Arrow{Params: params, Named: fd.Named, Result: c.resolveType(fd.Result)}}
	c.info.Funs[fd] = o
	c.bind(fd.Name, o, fd.Sp)
	return o
}

func (c *checker) checkFunBody(fd *ast.FunDecl) {
	o := c.info.Funs[fd]
	c.open = append(c.open, fd)
	c.push()
	for _, p := range o.Type.Params {
		c.bind(p.Name, &VarObj{Name: p.Name, Type: p.Type}, fd.Sp)
	}
	got := c.checkBlock(fd.Body, true)
	c.unify(got, o.Type.Result, fd.Body.Sp, "function %q result", fd.Name)
	c.pop()
	c.open = c.open[:len(c.open)-1]
}

// unify checks that got is compatible with want (Never unifies with
// anything) and returns the more specific of the two.
func (c *checker) unify(got, want Type, sp source.Span, what string, args ...any) Type {
	if _, ok := got.(Never); ok {
		return want
	}
	if _, ok := want.(Never); ok {
		return got
	}
	if !Equal(got, want) {
		c.errs.Errorf(sp, "%s: type mismatch: got %s, want %s",
			fmt.Sprintf(what, args...), got, want)
	}
	return want
}

// checkBlock checks a block and returns its result type.
func (c *checker) checkBlock(b *ast.Block, tail bool) Type {
	c.push()
	defer c.pop()
	// Consecutive runs of nested fun declarations are mutually visible,
	// enabling mutual tail recursion.
	for i := 0; i < len(b.Stmts); i++ {
		run := 0
		for i+run < len(b.Stmts) {
			if _, ok := b.Stmts[i+run].(*ast.FunStmt); !ok {
				break
			}
			run++
		}
		if run > 0 {
			for j := 0; j < run; j++ {
				c.declareFun(b.Stmts[i+j].(*ast.FunStmt).Fun)
			}
			for j := 0; j < run; j++ {
				c.checkFunBody(b.Stmts[i+j].(*ast.FunStmt).Fun)
			}
			i += run - 1
			continue
		}
		c.checkStmt(b.Stmts[i], tail)
	}
	if b.Result != nil {
		return c.checkExpr(b.Result, tail)
	}
	return Unit
}

func (c *checker) checkStmt(s ast.Stmt, tail bool) {
	switch s := s.(type) {
	case *ast.LetStmt:
		c.checkLet(s)
	case *ast.ExprStmt:
		c.checkExpr(s.X, false)
	case *ast.StoreStmt:
		c.checkStore(s)
	case *ast.WhileStmt:
		cond := c.checkExpr(s.Cond, false)
		c.unify(cond, Bool{}, s.Cond.Span(), "while condition")
		got := c.checkBlock(s.Body, false)
		c.unify(got, Unit, s.Body.Sp, "while body")
	case *ast.ReturnStmt:
		// Return transfers to the function's return continuation; its
		// argument is in tail position.
		var got Type = Unit
		if s.X != nil {
			got = c.checkExpr(s.X, true)
		}
		if len(c.open) == 0 {
			c.errs.Errorf(s.Sp, "return outside function")
			return
		}
		fd := c.open[len(c.open)-1]
		c.unify(got, c.info.Funs[fd].Type.Result, s.Sp, "return from %q", fd.Name)
	case *ast.FunStmt:
		// handled by checkBlock runs; a lone decl reaching here is fine
		c.declareFun(s.Fun)
		c.checkFunBody(s.Fun)
	}
}

func (c *checker) checkLet(s *ast.LetStmt) {
	got := c.checkExpr(s.X, false)
	if s.Type != nil {
		want := c.resolveType(s.Type)
		got = c.unify(got, want, s.X.Span(), "let %s", s.Names[0])
	}
	if len(s.Names) == 1 {
		if s.Names[0] != "_" {
			c.bind(s.Names[0], &VarObj{Name: s.Names[0], Type: got}, s.Sp)
		}
		return
	}
	tup, ok := Expand(got).(Tuple)
	if !ok || len(tup.Elems) != len(s.Names) {
		c.errs.Errorf(s.Sp, "cannot destructure %s into %d names", got, len(s.Names))
		return
	}
	for i, n := range s.Names {
		if n != "_" {
			c.bind(n, &VarObj{Name: n, Type: tup.Elems[i]}, s.Sp)
		}
	}
}

// aggregate size limits per memory intrinsic (paper §5.2: DefL_i,
// UseS_i for 1<=i<=8; DefLD_j, UseSD_j for j in {2,4,6,8}).
func (c *checker) checkAggSize(op ast.IntrinsicOp, n int, sp source.Span) {
	switch op {
	case ast.OpSRAM, ast.OpScratch, ast.OpRFIFO, ast.OpTFIFO:
		if n < 1 || n > 8 {
			c.errs.Errorf(sp, "%v aggregate size %d out of range 1..8", op, n)
		}
	case ast.OpSDRAM:
		if n < 2 || n > 8 || n%2 != 0 {
			c.errs.Errorf(sp, "%v aggregate size %d must be 2, 4, 6, or 8", op, n)
		}
	}
}

func (c *checker) checkStore(s *ast.StoreStmt) {
	addr := c.checkExpr(s.Addr, false)
	c.unify(addr, Word{}, s.Addr.Span(), "%v address", s.Op)
	words := 0
	for _, v := range s.Values {
		t := c.checkExpr(v, false)
		n := WordCount(t)
		if n == 0 || !allWords(t) {
			c.errs.Errorf(v.Span(), "%v store operand must be word-valued, got %s", s.Op, t)
			n = 1
		}
		words += n
	}
	if s.Op == ast.OpCSR {
		if words != 1 {
			c.errs.Errorf(s.Sp, "csr store takes exactly one word")
		}
		return
	}
	c.checkAggSize(s.Op, words, s.Sp)
}

// allWords reports whether every flattened leaf of t is a word.
func allWords(t Type) bool {
	for _, l := range Flatten(t) {
		if _, ok := l.Type.(Word); !ok {
			return false
		}
	}
	return WordCount(t) > 0
}

func (c *checker) checkExpr(e ast.Expr, tail bool) Type {
	t := c.exprType(e, tail)
	c.info.Types[e] = t
	return t
}

func (c *checker) exprType(e ast.Expr, tail bool) Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return Word{}
	case *ast.BoolLit:
		return Bool{}
	case *ast.VarRef:
		o, ok := c.lookup(e.Name)
		if !ok {
			c.errs.Errorf(e.Sp, "undefined name %q", e.Name)
			return Word{}
		}
		c.info.Uses[e] = o
		switch o := o.(type) {
		case *VarObj:
			return o.Type
		case *FunObj:
			return o.Type
		case *ExnObj:
			return o.Type
		case *ConstObj:
			return Word{}
		}
		return Word{}
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X, false)
		switch e.Op {
		case ast.OpNot:
			c.unify(xt, Bool{}, e.X.Span(), "operand of !")
			return Bool{}
		default:
			c.unify(xt, Word{}, e.X.Span(), "operand of unary %v", e.Op)
			return Word{}
		}
	case *ast.BinaryExpr:
		lt := c.checkExpr(e.L, false)
		rt := c.checkExpr(e.R, false)
		switch {
		case e.Op.IsLogical():
			c.unify(lt, Bool{}, e.L.Span(), "operand of %v", e.Op)
			c.unify(rt, Bool{}, e.R.Span(), "operand of %v", e.Op)
			return Bool{}
		case e.Op.IsComparison():
			c.unify(lt, Word{}, e.L.Span(), "operand of %v", e.Op)
			c.unify(rt, Word{}, e.R.Span(), "operand of %v", e.Op)
			return Bool{}
		default:
			c.unify(lt, Word{}, e.L.Span(), "operand of %v", e.Op)
			c.unify(rt, Word{}, e.R.Span(), "operand of %v", e.Op)
			return Word{}
		}
	case *ast.TupleExpr:
		elems := make([]Type, len(e.Elems))
		for i, x := range e.Elems {
			elems[i] = c.checkExpr(x, false)
		}
		return Tuple{Elems: elems}
	case *ast.RecordExpr:
		fields := make([]Field, len(e.Fields))
		seen := map[string]bool{}
		for i, f := range e.Fields {
			if seen[f.Name] {
				c.errs.Errorf(f.Sp, "duplicate record field %q", f.Name)
			}
			seen[f.Name] = true
			fields[i] = Field{Name: f.Name, Type: c.checkExpr(f.X, false)}
		}
		return Record{Fields: fields}
	case *ast.SelectExpr:
		xt := c.checkExpr(e.X, false)
		rec, ok := Expand(xt).(Record)
		if !ok {
			c.errs.Errorf(e.Sp, "selecting field %q from non-record type %s", e.Name, xt)
			return Word{}
		}
		for _, f := range rec.Fields {
			if f.Name == e.Name {
				return f.Type
			}
		}
		c.errs.Errorf(e.Sp, "type %s has no field %q", xt, e.Name)
		return Word{}
	case *ast.ProjExpr:
		xt := c.checkExpr(e.X, false)
		tup, ok := Expand(xt).(Tuple)
		if !ok {
			c.errs.Errorf(e.Sp, "projecting component %d from non-tuple type %s", e.Index, xt)
			return Word{}
		}
		if e.Index < 0 || e.Index >= len(tup.Elems) {
			c.errs.Errorf(e.Sp, "tuple index %d out of range for %s", e.Index, xt)
			return Word{}
		}
		return tup.Elems[e.Index]
	case *ast.IfExpr:
		cond := c.checkExpr(e.Cond, false)
		c.unify(cond, Bool{}, e.Cond.Span(), "if condition")
		thenT := c.checkExpr(e.Then, tail)
		if e.Else == nil {
			c.unify(thenT, Unit, e.Then.Span(), "if-statement branch")
			return Unit
		}
		elseT := c.checkExpr(e.Else, tail)
		if _, ok := thenT.(Never); ok {
			return elseT
		}
		if _, ok := elseT.(Never); ok {
			return thenT
		}
		c.unify(elseT, thenT, e.Sp, "if branches")
		return thenT
	case *ast.BlockExpr:
		return c.checkBlock(e.B, tail)
	case *ast.CallExpr:
		return c.checkCall(e, e.Callee, len(e.Args), func(i int) (string, ast.Expr) {
			return "", e.Args[i]
		}, false, tail)
	case *ast.CallNamedExpr:
		return c.checkCall(e, e.Callee, len(e.Fields), func(i int) (string, ast.Expr) {
			return e.Fields[i].Name, e.Fields[i].X
		}, true, tail)
	case *ast.RaiseExpr:
		xt := c.checkExpr(e.Exn, false)
		exn, ok := Expand(xt).(Exn)
		if !ok {
			c.errs.Errorf(e.Sp, "raising a non-exception of type %s", xt)
			return Never{}
		}
		if e.Named != exn.Named {
			c.errs.Errorf(e.Sp, "raise argument style does not match exception type %s", exn)
			return Never{}
		}
		if e.Named {
			c.checkNamedArgs(exn.Params, e.Fields, e.Sp, "raise")
		} else {
			if len(e.Args) != len(exn.Params) {
				c.errs.Errorf(e.Sp, "raise: got %d arguments, want %d", len(e.Args), len(exn.Params))
			}
			for i, a := range e.Args {
				at := c.checkExpr(a, false)
				if i < len(exn.Params) {
					c.unify(at, exn.Params[i].Type, a.Span(), "raise argument %d", i)
				}
			}
		}
		return Never{}
	case *ast.TryExpr:
		c.push()
		var resultT Type = Never{}
		// Handlers introduce their exception names lexically into the body.
		for i := range e.Handlers {
			h := &e.Handlers[i]
			params := make([]Field, len(h.Params))
			for j, p := range h.Params {
				typ := c.resolveType(p.Type)
				if p.Type == nil {
					typ = Word{} // untyped handler params default to word
				}
				params[j] = Field{Name: p.Name, Type: typ}
			}
			o := &ExnObj{Name: h.Name, Type: Exn{Params: params, Named: h.Named}, Decl: h}
			c.info.Exns[h] = o
			c.bind(h.Name, o, h.Sp)
		}
		bodyT := c.checkBlock(e.Body, false)
		resultT = c.meet(resultT, bodyT, e.Body.Sp, "try body")
		for i := range e.Handlers {
			h := &e.Handlers[i]
			o := c.info.Exns[h]
			c.push()
			for _, p := range o.Type.Params {
				c.bind(p.Name, &VarObj{Name: p.Name, Type: p.Type}, h.Sp)
			}
			ht := c.checkBlock(h.Body, tail)
			resultT = c.meet(resultT, ht, h.Sp, "handler %q", h.Name)
			c.pop()
		}
		c.pop()
		return resultT
	case *ast.UnpackExpr:
		l := c.resolveLayout(e.Layout)
		c.info.Layouts[e] = l
		xt := c.checkExpr(e.X, false)
		c.unify(xt, Packed{L: l}, e.X.Span(), "unpack operand")
		return Unpacked{L: l}
	case *ast.PackExpr:
		l := c.resolveLayout(e.Layout)
		c.info.Layouts[e] = l
		c.checkPackFields(l, e.Fields, e.Sp)
		return Packed{L: l}
	case *ast.IntrinsicExpr:
		return c.checkIntrinsic(e)
	}
	c.errs.Errorf(e.Span(), "unsupported expression %T", e)
	return Word{}
}

// meet combines branch result types, treating Never as the identity.
func (c *checker) meet(a, b Type, sp source.Span, what string, args ...any) Type {
	if _, ok := a.(Never); ok {
		return b
	}
	if _, ok := b.(Never); ok {
		return a
	}
	return c.unify(b, a, sp, what, args...)
}

func (c *checker) checkCall(e ast.Expr, callee ast.Expr, nargs int,
	arg func(int) (string, ast.Expr), named, tail bool) Type {
	ct := c.checkExpr(callee, false)
	arrow, ok := Expand(ct).(Arrow)
	if !ok {
		c.errs.Errorf(callee.Span(), "calling non-function of type %s", ct)
		for i := 0; i < nargs; i++ {
			_, x := arg(i)
			c.checkExpr(x, false)
		}
		return Word{}
	}
	if named != arrow.Named {
		c.errs.Errorf(e.Span(), "call style does not match function type %s", arrow)
	}
	if named {
		fields := make([]ast.FieldInit, nargs)
		for i := 0; i < nargs; i++ {
			name, x := arg(i)
			fields[i] = ast.FieldInit{Name: name, X: x, Sp: x.Span()}
		}
		c.checkNamedArgs(arrow.Params, fields, e.Span(), "call")
	} else {
		if nargs != len(arrow.Params) {
			c.errs.Errorf(e.Span(), "call: got %d arguments, want %d", nargs, len(arrow.Params))
		}
		for i := 0; i < nargs; i++ {
			_, x := arg(i)
			at := c.checkExpr(x, false)
			if i < len(arrow.Params) {
				c.unify(at, arrow.Params[i].Type, x.Span(), "argument %d", i)
			}
		}
	}
	// Record the call edge for the tail-recursion restriction (§3.1):
	// calls participating in a recursive cycle must be tail calls, so
	// the runtime model needs no stack. Checked in checkTailCycles.
	if vr, ok := callee.(*ast.VarRef); ok && len(c.open) > 0 {
		if fo, ok := c.info.Uses[vr].(*FunObj); ok {
			c.calls = append(c.calls, callEdge{
				from: c.open[len(c.open)-1], to: fo.Decl, tail: tail, sp: e.Span(),
			})
		}
	}
	return arrow.Result
}

// checkTailCycles enforces that every call edge inside a recursive
// cycle (a strongly connected component of the call graph, or a self
// call) is a tail call.
func (c *checker) checkTailCycles() {
	adj := map[*ast.FunDecl][]*ast.FunDecl{}
	for _, e := range c.calls {
		adj[e.from] = append(adj[e.from], e.to)
	}
	comp := sccs(adj)
	for _, e := range c.calls {
		if e.tail {
			continue
		}
		if e.from == e.to || (comp[e.from] != 0 && comp[e.from] == comp[e.to]) {
			c.errs.Errorf(e.sp, "recursive call to %q is not in tail position", e.to.Name)
		}
	}
}

// sccs assigns a component id to every node in a nontrivial strongly
// connected component (size >= 2); nodes outside cycles get id 0.
func sccs(adj map[*ast.FunDecl][]*ast.FunDecl) map[*ast.FunDecl]int {
	index := map[*ast.FunDecl]int{}
	low := map[*ast.FunDecl]int{}
	onStack := map[*ast.FunDecl]bool{}
	var stack []*ast.FunDecl
	comp := map[*ast.FunDecl]int{}
	next, compID := 1, 0

	var strongconnect func(v *ast.FunDecl)
	strongconnect = func(v *ast.FunDecl) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []*ast.FunDecl
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) >= 2 {
				compID++
				for _, m := range members {
					comp[m] = compID
				}
			}
		}
	}
	for v := range adj {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return comp
}

func (c *checker) checkNamedArgs(params []Field, fields []ast.FieldInit, sp source.Span, what string) {
	seen := map[string]bool{}
	byName := map[string]Type{}
	for _, p := range params {
		byName[p.Name] = p.Type
	}
	for _, f := range fields {
		if seen[f.Name] {
			c.errs.Errorf(f.Sp, "%s: duplicate argument %q", what, f.Name)
			continue
		}
		seen[f.Name] = true
		want, ok := byName[f.Name]
		at := c.checkExpr(f.X, false)
		if !ok {
			c.errs.Errorf(f.Sp, "%s: no parameter named %q", what, f.Name)
			continue
		}
		c.unify(at, want, f.X.Span(), "%s argument %q", what, f.Name)
	}
	for _, p := range params {
		if !seen[p.Name] {
			c.errs.Errorf(sp, "%s: missing argument %q", what, p.Name)
		}
	}
}

// checkPackFields checks that a pack expression provides exactly the
// leaves of the layout, choosing precisely one alternative per overlay
// (§3.2: "packing takes input corresponding to precisely one
// alternative of each overlay").
func (c *checker) checkPackFields(l *layout.Layout, fields []ast.FieldInit, sp source.Span) {
	byName := map[string]ast.FieldInit{}
	for _, f := range fields {
		if _, dup := byName[f.Name]; dup {
			c.errs.Errorf(f.Sp, "pack: duplicate field %q", f.Name)
		}
		byName[f.Name] = f
	}
	for _, lf := range l.Fields {
		if lf.Name == "" {
			continue // gap: bits are zero-filled
		}
		f, ok := byName[lf.Name]
		if !ok {
			c.errs.Errorf(sp, "pack: missing field %q", lf.Name)
			continue
		}
		delete(byName, lf.Name)
		c.checkPackField(lf, f)
	}
	for name, f := range byName {
		c.errs.Errorf(f.Sp, "pack: layout has no field %q", name)
	}
}

func (c *checker) checkPackField(lf layout.Field, f ast.FieldInit) {
	switch {
	case len(lf.Overlay) > 0:
		rec, ok := f.X.(*ast.RecordExpr)
		if !ok || len(rec.Fields) != 1 {
			c.errs.Errorf(f.Sp, "pack: overlay field %q requires exactly one alternative, e.g. [ %s = ... ]",
				lf.Name, lf.Overlay[0].Name)
			c.checkExpr(f.X, false)
			return
		}
		c.info.Types[f.X] = Unit // marker; the record itself has no value
		choice := rec.Fields[0]
		for _, a := range lf.Overlay {
			if a.Name != choice.Name {
				continue
			}
			if a.Sub != nil {
				c.checkPackSub(a.Sub, choice)
			} else {
				t := c.checkExpr(choice.X, false)
				c.unify(t, Word{}, choice.X.Span(), "pack field %q", choice.Name)
			}
			return
		}
		c.errs.Errorf(choice.Sp, "pack: overlay %q has no alternative %q", lf.Name, choice.Name)
	case lf.Sub != nil:
		c.checkPackSub(lf.Sub, f)
	default:
		t := c.checkExpr(f.X, false)
		c.unify(t, Word{}, f.X.Span(), "pack field %q", f.Name)
	}
}

func (c *checker) checkPackSub(sub *layout.Layout, f ast.FieldInit) {
	if rec, ok := f.X.(*ast.RecordExpr); ok {
		c.info.Types[f.X] = Unit // structural; fields checked individually
		c.checkPackFields(sub, rec.Fields, f.Sp)
		return
	}
	// A sub-layout may also be provided as an unpacked(sub) value.
	t := c.checkExpr(f.X, false)
	c.unify(t, Unpacked{L: sub}, f.X.Span(), "pack field %q", f.Name)
}

func (c *checker) checkIntrinsic(e *ast.IntrinsicExpr) Type {
	wordArgs := func(n int) {
		if len(e.Args) != n {
			c.errs.Errorf(e.Sp, "%v takes %d argument(s), got %d", e.Op, n, len(e.Args))
		}
		for _, a := range e.Args {
			at := c.checkExpr(a, false)
			c.unify(at, Word{}, a.Span(), "%v argument", e.Op)
		}
	}
	size := e.Size
	if size == 0 {
		size = 1
		if e.Op == ast.OpSDRAM {
			size = 2
		}
	}
	switch e.Op {
	case ast.OpSRAM, ast.OpScratch, ast.OpRFIFO, ast.OpSDRAM:
		wordArgs(1)
		c.checkAggSize(e.Op, size, e.Sp)
		if size == 1 {
			return Word{}
		}
		return WordTuple(size)
	case ast.OpHash:
		wordArgs(1)
		return Word{}
	case ast.OpBTS:
		wordArgs(2)
		return Word{}
	case ast.OpCSR:
		wordArgs(1)
		return Word{}
	case ast.OpCtxSwap:
		wordArgs(0)
		return Unit
	case ast.OpTFIFO:
		c.errs.Errorf(e.Sp, "tfifo is write-only; use tfifo(idx) <- values")
		return Unit
	}
	c.errs.Errorf(e.Sp, "unsupported intrinsic %v", e.Op)
	return Word{}
}

// constEval evaluates a compile-time constant word expression.
func (c *checker) constEval(e ast.Expr) (uint32, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.VarRef:
		if o, ok := c.lookup(e.Name); ok {
			if co, ok := o.(*ConstObj); ok {
				c.info.Uses[e] = co
				return co.Value, true
			}
		}
		return 0, false
	case *ast.UnaryExpr:
		v, ok := c.constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case ast.OpNeg:
			return -v, true
		case ast.OpInv:
			return ^v, true
		}
		return 0, false
	case *ast.BinaryExpr:
		l, ok1 := c.constEval(e.L)
		r, ok2 := c.constEval(e.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		return evalBinop(e.Op, l, r)
	}
	return 0, false
}

// evalBinop evaluates a word binary operator on constants. Comparison
// and logical operators are not constant word expressions.
func evalBinop(op ast.BinOp, l, r uint32) (uint32, bool) {
	switch op {
	case ast.OpAdd:
		return l + r, true
	case ast.OpSub:
		return l - r, true
	case ast.OpMul:
		return l * r, true
	case ast.OpDiv:
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case ast.OpMod:
		if r == 0 {
			return 0, false
		}
		return l % r, true
	case ast.OpAnd:
		return l & r, true
	case ast.OpOr:
		return l | r, true
	case ast.OpXor:
		return l ^ r, true
	case ast.OpShl:
		return l << (r & 31), true
	case ast.OpShr:
		return l >> (r & 31), true
	}
	return 0, false
}

// EvalBinop exposes constant evaluation of word operators to the
// optimizer.
func EvalBinop(op ast.BinOp, l, r uint32) (uint32, bool) { return evalBinop(op, l, r) }

// EvalCmp evaluates a comparison operator on unsigned words; any other
// operator is false. The optimizer folds branches with it and the CPS
// evaluator takes them with it.
func EvalCmp(op ast.BinOp, l, r uint32) bool {
	switch op {
	case ast.OpEq:
		return l == r
	case ast.OpNe:
		return l != r
	case ast.OpLt:
		return l < r
	case ast.OpGt:
		return l > r
	case ast.OpLe:
		return l <= r
	case ast.OpGe:
		return l >= r
	}
	return false
}
