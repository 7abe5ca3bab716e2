// Package determinism enforces the repo's reproducibility contract at
// compile time: plans are byte-identical across runs, machines, and
// parallelism levels (docs/ARCHITECTURE.md), so the determinism-critical
// packages must not let ambient nondeterminism in. Three rules, applied to
// assign, stream, dispatch, wds, spatial, workload, scenario and wire:
//
//  1. A `for … range` over a map must have an order-insensitive body —
//     commutative accumulation only (integer counters, keyed writes,
//     deletes), and no read of an accumulator's running value. Anything
//     order-exposed needs `//datawa:unordered <why>`.
//  2. No ambient-environment reads: time.Now/Since/Until, the global
//     math/rand functions, and os.Getenv/LookupEnv/Environ are banned.
//     Wall-clock belongs to datawa-serve, obs, and LoadGen's wall-time
//     report; a deliberate site carries `//datawa:wallclock <why>`. Seeded
//     rand.New(rand.NewSource(…)) is fine — that is how workloads are meant
//     to generate randomness.
//  3. No bare `go` statements. The one fan-out the critical packages keep —
//     the dispatcher stepping an epoch's shards — carries
//     `//datawa:fanout <why>`, and its inline branch is the reference
//     semantics its tests compare every fanned-out run against. Code that
//     needs another goroutine belongs outside the critical packages.
//
// A fourth rule covers the packages whose output bits are pinned — nn,
// tensor, predict, tvf and workload: no math.Exp, Log, Tanh, Pow, Exp2,
// Log1p or Expm1, called or taken as a value. Their bits depend on the CPU
// (amd64 assembly, with an FMA path), so these packages take internal/fmath's,
// which are the same everywhere.
//
// Test files are exempt (they replay seeded randomness and assert over
// maps freely).
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag map-order dependence, ambient clock/rand/env reads, and bare goroutines " +
		"in the determinism-critical packages",
	Run: run,
}

// criticalPkgs are the import-path leaf names of the packages under the
// byte-identical-plans contract. Matching is by final path segment, so the
// rule follows the packages if the tree is ever re-rooted (and lets fixture
// packages opt in by name).
var criticalPkgs = map[string]bool{
	"assign":   true,
	"stream":   true,
	"dispatch": true,
	"wds":      true,
	"spatial":  true,
	"workload": true,
	"scenario": true,
	"wire":     true,
}

// pinnedPkgs are the leaf names of the packages whose output bits are pinned
// (model parameters, forecasts, the workload traces, the latency histograms'
// bucket bounds), matched as criticalPkgs are.
var pinnedPkgs = map[string]bool{
	"nn":       true,
	"tensor":   true,
	"predict":  true,
	"tvf":      true,
	"workload": true,
	"obs":      true,
}

// Critical reports whether a package path is under the determinism contract.
func Critical(path string) bool { return criticalPkgs[leaf(path)] }

// Pinned reports whether a package path's output bits are pinned, so it must
// take its transcendental functions from internal/fmath.
func Pinned(path string) bool { return pinnedPkgs[leaf(path)] }

func leaf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func run(pass *analysis.Pass) (any, error) {
	critical, pinned := Critical(pass.Pkg.Path()), Pinned(pass.Pkg.Path())
	if !critical && !pinned {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && pinned {
				checkCPUMath(pass, sel)
			}
			if !critical {
				return true
			}
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.CallExpr:
				checkAmbientCall(pass, n)
			case *ast.GoStmt:
				if d, ok := pass.DirectiveAt(n.Pos(), "fanout"); !ok {
					pass.Reportf(n.Pos(), "bare go statement in determinism-critical package %s: "+
						"step on the caller's goroutine, so a serial run stays the reference semantics",
						pass.Pkg.Path())
				} else if d.Justification == "" {
					pass.Reportf(n.Pos(), "//datawa:fanout needs a justification (why does each goroutine write only its own slots?)")
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkRange flags map iteration with an order-sensitive body.
func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if d, ok := pass.DirectiveAt(rng.Pos(), "unordered"); ok {
		if d.Justification == "" {
			pass.Reportf(rng.Pos(), "//datawa:unordered needs a justification (why is iteration order harmless here?)")
		}
		return
	}
	reason := orderSensitive(pass, rng.Body.List)
	if reason == "" {
		reason = runningValueRead(pass, rng.Body)
	}
	if reason != "" {
		pass.Reportf(rng.Pos(), "map iteration with an order-sensitive body (%s): "+
			"make the body commutative or annotate //datawa:unordered with a justification", reason)
	}
}

// runningValueRead reports a body that reads an accumulator it also updates:
// `starts[k] = total; total += n` passes statement by statement — a keyed
// write and an integer accumulation — but the value stored for a key is the
// sum over the keys that happened to come before it. Variables declared
// inside the body start afresh every iteration and are not accumulators.
func runningValueRead(pass *analysis.Pass, body *ast.BlockStmt) string {
	acc := make(map[types.Object]bool)
	updates := make(map[*ast.Ident]bool) // the occurrences that are the update's own target
	ast.Inspect(body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				targets = n.Lhs
			}
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		}
		for _, e := range targets {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil && (obj.Pos() < body.Pos() || obj.Pos() > body.End()) {
				acc[obj], updates[id] = true, true
			}
		}
		return true
	})
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && reason == "" && !updates[id] && acc[pass.TypesInfo.Uses[id]] {
			reason = "reads the running value of accumulator " + id.Name + ", which depends on the keys that came before"
		}
		return reason == ""
	})
	return reason
}

// orderSensitive reports why a statement list is not provably
// order-insensitive, or "" if every statement is commutative accumulation.
// The accepted forms are deliberately narrow: keyed writes (m[k] = v),
// deletes, integer counter updates, and pure control flow over those. Any
// call, append, channel op, early exit, or floating-point accumulation is
// order-sensitive (float addition does not commute bitwise).
func orderSensitive(pass *analysis.Pass, stmts []ast.Stmt) string {
	for _, s := range stmts {
		if reason := orderSensitiveStmt(pass, s); reason != "" {
			return reason
		}
	}
	return ""
}

func orderSensitiveStmt(pass *analysis.Pass, s ast.Stmt) string {
	switch s := s.(type) {
	case *ast.AssignStmt:
		// Compound integer updates commute; keyed writes land on unique keys.
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			for _, lhs := range s.Lhs {
				if !isKeyedOrBlank(lhs) {
					return "assigns to a shared location, last iteration wins"
				}
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
			token.XOR_ASSIGN:
			for _, lhs := range s.Lhs {
				if !isIntegerExpr(pass, lhs) {
					return "non-integer compound assignment does not commute bitwise"
				}
			}
		default:
			return "compound assignment of a non-commutative operator"
		}
		for _, rhs := range s.Rhs {
			if reason := impureExpr(pass, rhs); reason != "" {
				return reason
			}
		}
		return ""
	case *ast.IncDecStmt:
		if !isIntegerExpr(pass, s.X) {
			return "non-integer increment does not commute bitwise"
		}
		return ""
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && isBuiltin(pass, call, "delete") {
			return ""
		}
		return "calls a function with effects"
	case *ast.IfStmt:
		if s.Init != nil {
			if reason := orderSensitiveStmt(pass, s.Init); reason != "" {
				return reason
			}
		}
		if reason := impureExpr(pass, s.Cond); reason != "" {
			return reason
		}
		if reason := orderSensitive(pass, s.Body.List); reason != "" {
			return reason
		}
		if s.Else != nil {
			return orderSensitiveStmt(pass, s.Else)
		}
		return ""
	case *ast.BlockStmt:
		return orderSensitive(pass, s.List)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return "declaration with effects"
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					if reason := impureExpr(pass, v); reason != "" {
						return reason
					}
				}
			}
		}
		return ""
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return ""
		}
		return "breaks out early, so which key arrives first matters"
	case *ast.ReturnStmt:
		return "returns from inside the iteration, so which key arrives first matters"
	default:
		return "statement form the analyzer cannot prove commutative"
	}
}

// isKeyedOrBlank reports whether an assignment target is an index expression
// (unique per key) or the blank identifier.
func isKeyedOrBlank(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IndexExpr:
		return true
	case *ast.Ident:
		return e.Name == "_"
	}
	return false
}

func isIntegerExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// impureExpr reports why an expression may have effects or observe
// nondeterministic state, or "" if it is a pure computation. Calls other
// than len/cap/delete and conversions are treated as impure.
func impureExpr(pass *analysis.Pass, e ast.Expr) string {
	reason := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(pass, n, "len") || isBuiltin(pass, n, "cap") || isConversion(pass, n) {
				return true
			}
			reason = "calls a function with effects"
			return false
		case *ast.FuncLit:
			reason = "defines a closure the analyzer cannot prove commutative"
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reason = "receives from a channel"
				return false
			}
		}
		return true
	})
	return reason
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

// ambientFuncs lists the banned package-level functions: ambient reads that
// differ run to run. Seeded constructors are deliberately absent.
var ambientFuncs = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock read",
		"Since": "wall-clock read",
		"Until": "wall-clock read",
	},
	"os": {
		"Getenv":    "environment read",
		"LookupEnv": "environment read",
		"Environ":   "environment read",
	},
}

// randConstructors are the math/rand package-level functions that are pure
// constructors; every other package-level rand function draws from the
// process-global, scheduling-dependent source and is banned.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func checkAmbientCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine: their
	// receiver was constructed deterministically or the value came from an
	// allowlisted boundary.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	pkgPath, name := fn.Pkg().Path(), fn.Name()
	what := ""
	switch pkgPath {
	case "time", "os":
		what = ambientFuncs[pkgPath][name]
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			what = "process-global rand"
		}
	}
	if what == "" {
		return
	}
	if d, ok := pass.DirectiveAt(call.Pos(), "wallclock"); ok {
		if d.Justification == "" {
			pass.Reportf(call.Pos(), "//datawa:wallclock needs a justification (why may this package read ambient state here?)")
		}
		return
	}
	pass.Reportf(call.Pos(), "%s.%s (%s) in determinism-critical package %s: "+
		"inject the value from the boundary or annotate //datawa:wallclock with a justification",
		pkgPath, name, what, pass.Pkg.Path())
}

// cpuMath are the math functions whose bits may differ between CPUs or
// targets: assembly on some (amd64's Exp takes a fused multiply-add path on
// CPUs with FMA), built on those, or Go that a compiler fusing multiply-adds
// (arm64's) compiles to other bits.
var cpuMath = map[string]bool{
	"Exp": true, "Log": true, "Tanh": true, "Pow": true,
	"Exp2": true, "Log1p": true, "Expm1": true,
}

// checkCPUMath flags a use of one of cpuMath in a pinned package.
func checkCPUMath(pass *analysis.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math" || !cpuMath[fn.Name()] {
		return
	}
	pass.Reportf(sel.Pos(), "math.%s in pinned package %s: its bits depend on the CPU; "+
		"use internal/fmath, whose bits are the same everywhere", fn.Name(), pass.Pkg.Path())
}
