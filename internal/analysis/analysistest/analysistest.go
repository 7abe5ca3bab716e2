// Package analysistest runs an analyzer over fixture packages and checks
// its findings against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (reimplemented on the standard
// library; see internal/analysis for why x/tools is not vendored).
//
// Fixtures live under <analyzer>/testdata/src/<pkg>/*.go. A line that should
// produce a finding carries a trailing comment of the form
//
//	code() // want `regexp`
//
// with one backquoted regexp per expected finding on that line. The harness
// fails the test on any finding without a matching want, and any want
// without a matching finding. Fixture packages are type-checked against the
// standard library via the source importer, so they may import std packages
// freely but not each other.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run analyzes each named fixture package under the calling package's
// testdata/src and reports mismatches between findings and // want
// expectations via t.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runPackage(t, filepath.Join("testdata", "src", pkg), pkg, a)
	}
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func runPackage(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fixture package %s: no .go files in %s", pkgPath, dir)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	var wants []*expectation
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
		ws, err := parseWants(fset, f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		wants = append(wants, ws...)
	}

	tc := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, info, err := analysis.Check(tc, pkgPath, fset, files)
	if err != nil {
		t.Fatalf("typecheck %s: %v", pkgPath, err)
	}

	results, err := analysis.RunAnalyzers(fset, files, pkg, info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, pkgPath, err)
	}

	for _, res := range results {
		for _, d := range res.Diagnostics {
			posn := fset.Position(d.Pos)
			if !consume(wants, posn, d.Message) {
				t.Errorf("%s: unexpected finding: %s", posn, d.Message)
			}
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching `%s`, got none", w.file, w.line, w.re)
		}
	}
}

func consume(wants []*expectation, posn token.Position, message string) bool {
	for _, w := range wants {
		if !w.matched && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts `// want ...` expectations from one file's comments.
func parseWants(fset *token.FileSet, f *ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") && text != "want" {
				continue
			}
			posn := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
			if rest == "" {
				return nil, fmt.Errorf("line %d: empty want comment", posn.Line)
			}
			for rest != "" {
				if rest[0] != '`' {
					return nil, fmt.Errorf("line %d: want pattern must be backquoted: %q", posn.Line, rest)
				}
				end := strings.IndexByte(rest[1:], '`')
				if end < 0 {
					return nil, fmt.Errorf("line %d: unterminated want pattern: %q", posn.Line, rest)
				}
				pat := rest[1 : 1+end]
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad want pattern %q: %v", posn.Line, pat, err)
				}
				out = append(out, &expectation{file: posn.Filename, line: posn.Line, re: re})
				rest = strings.TrimSpace(rest[2+end:])
			}
		}
	}
	return out, nil
}
