package analysis_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/guarded"
	"repro/internal/analysis/hotpath"
)

// analyzers is the suite TestModuleIsClean runs over the module. A new
// analyzer is registered here.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	guarded.Analyzer,
	hotpath.Analyzer,
}

// listedPackage is the part of `go list -json` output the module check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	Module     *struct {
		Main      bool
		Dir       string
		GoVersion string
	}
}

// TestModuleIsClean runs the analyzer suite over the non-test files of every
// package in the module, type-checked against the compiler's export data for
// their imports, so the analyzers see the types the build sees. Every
// diagnostic fails the test at its file:line:col. The check also fails when
// it analyzed anything other than exactly the packages `go list repro/...`
// names, or no determinism-critical package, so a loader that sees nothing
// cannot pass.
func TestModuleIsClean(t *testing.T) {
	want := strings.Fields(goList(t, "repro/..."))
	dec := json.NewDecoder(strings.NewReader(goList(t,
		"-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,ImportMap,Module", "repro/...")))
	var pkgs []listedPackage           // the main module's packages
	exports := make(map[string]string) // import path → export data file
	root := ""
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		if exports[p.ImportPath] = p.Export; p.Module != nil && p.Module.Main {
			pkgs, root = append(pkgs, p), p.Module.Dir
		}
	}
	// go test caches a pass against the files this process opens, hashing a
	// directory by its entries' names, sizes and mtimes, and cannot see what
	// the go list child read. Listing every directory the go tool searches
	// (it skips ".x", "_x" and testdata) makes a new file or package rerun
	// the check instead of replaying a cached pass.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && (d.Name()[0] == '.' || d.Name()[0] == '_' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatalf("walk module %q: %v", root, err)
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})

	var analyzed []string
	critical := false
	for _, p := range pkgs {
		analyzed = append(analyzed, p.ImportPath)
		critical = critical || determinism.Critical(p.ImportPath)
		if len(p.GoFiles) == 0 {
			t.Errorf("%s: no files to analyze", p.ImportPath)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := &types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := p.ImportMap[path]; ok {
					path = mapped
				}
				return gc.Import(path)
			}),
			Sizes:     types.SizesFor("gc", runtime.GOARCH),
			GoVersion: "go" + p.Module.GoVersion,
		}
		pkg, info, err := analysis.Check(conf, p.ImportPath, fset, files)
		if err != nil {
			t.Fatalf("typecheck %s: %v", p.ImportPath, err)
		}
		results, err := analysis.RunAnalyzers(fset, files, pkg, info, analyzers)
		if err != nil {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
		for _, res := range results {
			for _, d := range res.Diagnostics {
				posn := fset.Position(d.Pos)
				if rel, err := filepath.Rel(root, posn.Filename); err == nil {
					posn.Filename = rel
				}
				t.Errorf("%s: %s (%s)", posn, d.Message, res.Analyzer.Name)
			}
		}
	}

	slices.Sort(want)
	slices.Sort(analyzed)
	if !slices.Equal(analyzed, want) {
		t.Errorf("analyzed %d packages %v, want the %d go list names %v", len(analyzed), analyzed, len(want), want)
	}
	if !critical {
		t.Error("no determinism-critical package was analyzed")
	}
}

// goList runs `go list` with args and returns its standard output.
func goList(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if ee, ok := err.(*exec.ExitError); ok {
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
	} else if err != nil {
		t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
