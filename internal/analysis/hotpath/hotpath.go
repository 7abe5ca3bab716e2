// Package hotpath makes the zero-alloc steady state a compile-time
// contract. A function annotated //datawa:hotpath in its doc comment (wire
// frame decode, the dispatcher's inbox append and drain, the searchRun
// availability filter, slab ingest) must not introduce allocations on its hot statements:
//
//   - calls into fmt, errors or log (string building, argument boxing);
//   - make, new;
//   - append to a slice variable the function itself declared without
//     capacity (var out []T, out := []T(nil)): it grows from nil on every
//     call, however well the function is otherwise behaved;
//   - composite literals that escape: &T{…}, slice and map literals
//     (plain struct/array value literals stay on the stack and are fine);
//   - closures (the func value and its captures allocate);
//   - string ↔ []byte/[]rune conversions;
//   - implicit boxing: passing a concrete value to an interface-typed
//     parameter, or explicitly converting to an interface type.
//
// Two shapes are deliberately exempt. Terminal error branches are cold: an
// if-block whose last statement returns a non-nil error (or panics) may
// allocate freely — that is exactly the wire decoder's reject path, which
// only runs on malformed input. And a statement annotated
// //datawa:alloc <why> allocates on purpose — e.g. the ingest slabs, two
// amortized make calls per batch.
//
// The check is an approximation of escape analysis, tuned so the real hot
// paths pass clean and a regression (a stray fmt.Errorf in the decode loop,
// a closure in Ingest) fails the build. Test files are exempt.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the allocation-discipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "reject allocation-introducing constructs in functions annotated //datawa:hotpath",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := pass.FuncDirective(fd.Doc, fd.Pos(), "hotpath"); !ok {
				continue
			}
			c := &checker{pass: pass, fnType: fd.Type, grown: map[types.Object]bool{}}
			c.stmts(fd.Body.List)
		}
	}
	return nil, nil
}

type checker struct {
	pass   *analysis.Pass
	fnType *ast.FuncType
	// grown holds the function's local slice variables that start without
	// capacity and have only been assigned append results of themselves
	// since: appending to one allocates on every call.
	grown map[types.Object]bool
}

// stmts checks a hot statement list, skipping cold branches and
// //datawa:alloc-annotated statements.
func (c *checker) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

func (c *checker) stmt(s ast.Stmt) {
	if d, ok := c.pass.DirectiveAt(s.Pos(), "alloc"); ok {
		if d.Justification == "" {
			c.pass.Reportf(s.Pos(), "//datawa:alloc needs a justification (why is this allocation acceptable on the hot path?)")
		}
		c.track(s) // a sanctioned make still gives its variable capacity
		return
	}
	c.track(s)
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		c.expr(s.Cond)
		if c.coldBlock(s.Body) {
			// Terminal error/panic branch: allocation here is the reject
			// path, not the steady state.
		} else {
			c.stmts(s.Body.List)
		}
		if s.Else != nil {
			c.stmt(s.Else)
		}
	case *ast.BlockStmt:
		c.stmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Cond != nil {
			c.expr(s.Cond)
		}
		if s.Post != nil {
			c.stmt(s.Post)
		}
		c.stmts(s.Body.List)
	case *ast.RangeStmt:
		c.expr(s.X)
		c.stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Tag != nil {
			c.expr(s.Tag)
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				c.expr(e)
			}
			if c.coldStmts(clause.Body) {
				continue
			}
			c.stmts(clause.Body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			if c.coldStmts(clause.Body) {
				continue
			}
			c.stmts(clause.Body)
		}
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			c.expr(e)
		}
		for _, e := range s.Rhs {
			c.expr(e)
		}
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e)
		}
	case *ast.IncDecStmt:
		c.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		c.pass.Reportf(s.Pos(), "defer in a hotpath function: the deferred frame allocates and delays the hot return")
	case *ast.GoStmt:
		// The determinism analyzer owns goroutine discipline; here we only
		// note the closure allocation via the call expression below.
		c.expr(s.Call)
	case *ast.SendStmt:
		c.expr(s.Chan)
		c.expr(s.Value)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	}
}

// track follows the assignments and declarations of a statement for the
// append rule.
func (c *checker) track(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				c.assigned(lhs, s.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		gd, _ := s.Decl.(*ast.GenDecl)
		if gd == nil {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if len(vs.Values) == 0 {
					c.assigned(name, nil)
				} else if len(vs.Values) == len(vs.Names) {
					c.assigned(name, vs.Values[i])
				}
			}
		}
	}
}

// assigned tracks whether the slice variable named by lhs holds storage
// without capacity: a declaration without a value, nil, a []T(nil) conversion
// — or the append result of a variable that is itself still tracked.
func (c *checker) assigned(lhs, rhs ast.Expr) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	obj := c.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
		return
	}
	c.grown[obj] = c.capless(rhs)
}

func (c *checker) capless(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case nil:
		return true
	case *ast.Ident:
		return e.Name == "nil" || c.grown[c.pass.TypesInfo.ObjectOf(e)]
	case *ast.CallExpr:
		if tv, ok := c.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.capless(e.Args[0]) // []T(nil)
		}
		if id, ok := unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return c.capless(e.Args[0])
			}
		}
	}
	return false
}

// coldBlock reports whether a block is a terminal reject path: its last
// statement returns with a non-nil error or panics.
func (c *checker) coldBlock(b *ast.BlockStmt) bool {
	return c.coldStmts(b.List)
}

func (c *checker) coldStmts(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		final := last.Results[len(last.Results)-1]
		if id, ok := final.(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		t := c.pass.TypesInfo.TypeOf(final)
		return t != nil && isErrorType(t)
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType) || types.Implements(t, errorType.Underlying().(*types.Interface))
}

// expr checks one hot expression tree.
func (c *checker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n.Pos(), "closure in a hotpath function: the func value and its captures allocate")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.report(n.Pos(), "&composite literal in a hotpath function escapes to the heap")
					// Still descend to check the literal's elements.
				}
			}
		case *ast.CompositeLit:
			t := c.pass.TypesInfo.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					c.report(n.Pos(), "%s literal in a hotpath function allocates its backing store", kindOf(t))
				}
			}
		case *ast.CallExpr:
			c.call(n)
		}
		return true
	})
}

func kindOf(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	default:
		return "slice"
	}
}

// call checks one call expression: banned packages, allocating builtins,
// allocating conversions, and interface boxing of arguments.
func (c *checker) call(call *ast.CallExpr) {
	// Conversions.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.conversion(call, tv.Type)
		return
	}
	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				c.report(call.Pos(), "make in a hotpath function allocates; preallocate in the owner and reuse")
			case "new":
				c.report(call.Pos(), "new in a hotpath function allocates; use a caller-owned value")
			case "append":
				if len(call.Args) > 0 && c.capless(call.Args[0]) {
					c.report(call.Pos(), "append grows a slice this hotpath function declared without capacity, allocating on every call; "+
						"append into storage the caller or the owner provides")
				}
			}
			return
		}
	}
	// Banned packages.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt", "errors", "log":
				c.report(call.Pos(), "%s.%s in a hotpath function allocates (string building, argument boxing); "+
					"use a preallocated sentinel or move it to a cold branch", fn.Pkg().Path(), fn.Name())
				return
			}
		}
	}
	// Interface boxing of arguments.
	sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis != token.NoPos)
		if pt == nil {
			continue
		}
		if _, paramIface := pt.Underlying().(*types.Interface); !paramIface {
			continue
		}
		at := c.pass.TypesInfo.TypeOf(arg)
		if at == nil {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			// Boxing a pointer stores the pointer word directly: no allocation.
			continue
		}
		c.report(arg.Pos(), "passing %s to interface parameter boxes it on the heap in a hotpath function", at)
	}
}

// paramType resolves the parameter type seen by argument i of a call to sig.
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if ellipsis {
			return sig.Params().At(n - 1).Type()
		}
		s, ok := sig.Params().At(n - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return s.Elem()
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// conversion flags string<->bytes conversions, which copy, and conversions
// to interface types, which box.
func (c *checker) conversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := c.pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if _, toIface := to.Underlying().(*types.Interface); toIface {
		if _, fromIface := from.Underlying().(*types.Interface); !fromIface {
			c.report(call.Pos(), "conversion to interface type %s boxes the value on the heap in a hotpath function", to)
		}
		return
	}
	toB, toIsBasic := to.Underlying().(*types.Basic)
	fromB, fromIsBasic := from.Underlying().(*types.Basic)
	toSlice, toIsSlice := to.Underlying().(*types.Slice)
	fromSlice, fromIsSlice := from.Underlying().(*types.Slice)
	switch {
	case toIsBasic && toB.Info()&types.IsString != 0 && fromIsSlice && isByteOrRune(fromSlice.Elem()):
		c.report(call.Pos(), "[]%s -> string conversion copies in a hotpath function", fromSlice.Elem())
	case fromIsBasic && fromB.Info()&types.IsString != 0 && toIsSlice && isByteOrRune(toSlice.Elem()):
		c.report(call.Pos(), "string -> []%s conversion copies in a hotpath function", toSlice.Elem())
	}
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// report emits unless the construct's line carries //datawa:alloc.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if d, ok := c.pass.DirectiveAt(pos, "alloc"); ok {
		if d.Justification == "" {
			c.pass.Reportf(pos, "//datawa:alloc needs a justification (why is this allocation acceptable on the hot path?)")
		}
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
