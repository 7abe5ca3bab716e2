// Package analysis is the repo's static-analysis framework: a minimal,
// dependency-free core compatible in shape with golang.org/x/tools/go/analysis.
// The real x/tools module is deliberately not vendored — the repo has no
// module dependencies (go.mod is bare), so the framework reimplements the
// small slice the analyzer suite needs on top of go/ast and go/types:
//
//   - Analyzer / Pass / Diagnostic, the unit every checker is written against
//     (analysis.go, this file);
//   - the //datawa: annotation vocabulary shared by the analyzers
//     (directives.go);
//   - an analysistest-style fixture harness (analysistest/).
//
// The three analyzers live in subpackages: determinism, guarded and hotpath.
// TestModuleIsClean (module_test.go) runs them over every package of the
// module as part of `go test ./...`. docs/LINTING.md is the user-facing
// catalog.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. Run inspects a single type-checked
// package via the Pass and reports findings through Pass.Report; the
// analyzers in this suite are all package-local (no cross-package facts), so
// Run is the whole contract.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation. It
	// must be a valid Go identifier.
	Name string
	// Doc describes the check: first sentence is the summary line.
	Doc string
	// Run performs the check. The returned value is unused (kept for shape
	// compatibility with x/tools); errors abort the whole run.
	Run func(*Pass) (any, error)
}

// A Pass presents one package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// directives is the lazily-built per-file //datawa: directive index,
	// shared by all analyzers in the run via the driver.
	directives map[*ast.File]*Directives
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// InTestFile reports whether pos falls in a _test.go file. The suite's
// invariants (determinism, lock discipline, allocation budgets) are
// production contracts; tests routinely range maps for assertions or poke
// fields single-threaded, so every analyzer skips test files.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Result pairs an analyzer with its findings for one package.
type Result struct {
	Analyzer    *Analyzer
	Diagnostics []Diagnostic
}

// RunAnalyzers runs each analyzer over one type-checked package and returns
// the per-analyzer diagnostics in input order. It is the shared execution
// core of the module check (TestModuleIsClean) and the fixture harness
// (analysistest).
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Result, error) {
	dirIndex := make(map[*ast.File]*Directives)
	results := make([]Result, 0, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			directives: dirIndex,
		}
		var diags []Diagnostic
		pass.Report = func(d Diagnostic) { diags = append(diags, d) }
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		results = append(results, Result{Analyzer: a, Diagnostics: diags})
	}
	return results, nil
}

// Check type-checks one package's files under conf, recording every fact
// the analyzers read.
func Check(conf *types.Config, path string, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(path, fset, files, info)
	return pkg, info, err
}
