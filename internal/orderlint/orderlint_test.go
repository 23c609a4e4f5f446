// Package orderlint guards the byte-identity contract against Go's
// randomized map iteration. A float sum, a fit or an output list built by
// ranging over a map comes out in a different order on every run, and
// float addition is not associative, so results drift in their last bits.
// This test type-checks the numeric packages and reports every range over
// a map value. A loop whose result cannot depend on the visit order carries
// an "// order-insensitive" comment on its line or the line above, saying
// why; every other loop must iterate a sorted key list instead.
package orderlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// packages whose results feed hashed bytes, relative to the repo root.
var packages = []string{
	"internal/core",
	"internal/eval",
	"internal/experiments",
	"internal/geom",
	"internal/measure",
	"internal/network",
	"internal/stats",
}

// marker exempts one map range whose result does not depend on order.
const marker = "order-insensitive"

// TestNoOrderDependentMapRange reports each unmarked range over a map in the
// numeric packages (tests excluded).
func TestNoOrderDependentMapRange(t *testing.T) {
	root := repoRoot(t)
	// One source importer for all packages, so shared imports are
	// type-checked once.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, pkg := range packages {
		pkg := pkg
		t.Run(strings.ReplaceAll(pkg, "/", "_"), func(t *testing.T) {
			for _, problem := range lintDir(t, fset, imp, filepath.Join(root, pkg), "resilientloc/"+pkg) {
				t.Error(problem)
			}
		})
	}
}

// TestLintFlagsUnmarkedMapRange checks the lint itself on a synthetic
// package: an unmarked map range is reported, a marked one, a slice range
// and a range over a named map type's key slice are not.
func TestLintFlagsUnmarkedMapRange(t *testing.T) {
	dir := t.TempDir()
	src := `package p

type table map[string]float64

func sum(m table, xs []float64) (s float64) {
	for _, v := range m {
		s += v
	}
	for k := range m { // order-insensitive: deletes every key
		delete(m, k)
	}
	// order-insensitive: writes distinct slots,
	// one per key
	for k, v := range map[int]float64{} {
		xs[k] = v
	}
	for _, x := range xs {
		s += x
	}
	return s
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	problems := lintDir(t, fset, importer.ForCompiler(fset, "source", nil), dir, "p")
	if len(problems) != 1 || !strings.Contains(problems[0], "p.go:6:") {
		t.Fatalf("want exactly the unmarked loop at p.go:6 reported, got %q", problems)
	}
}

// repoRoot walks up from the test's working directory to the directory
// holding go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// lintDir type-checks the non-test files of the package in dir, importing
// from source, and returns one message per unmarked range over a map.
func lintDir(t *testing.T, fset *token.FileSet, imp types.Importer, dir, path string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var problems []string
	for _, pkg := range pkgs {
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names) // diagnostics in a stable order
		files := make([]*ast.File, len(names))
		for i, name := range names {
			files[i] = pkg.Files[name]
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			t.Fatalf("%s: type-check: %v", path, err)
		}
		for _, f := range files {
			marked := markedLines(fset, f)
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				pos := fset.Position(rs.For)
				if marked[pos.Line] || marked[pos.Line-1] {
					return true
				}
				problems = append(problems, fmt.Sprintf(
					"%s:%d: range over map %s: iterate sorted keys, or mark the loop // %s if its result cannot depend on order",
					filepath.Base(pos.Filename), pos.Line, types.ExprString(rs.X), marker))
				return true
			})
		}
	}
	return problems
}

// markedLines returns the lines covered by a comment group that holds the
// order-insensitive marker, so a marker whose explanation runs over several
// comment lines still sits on the line above its loop.
func markedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		if !strings.Contains(cg.Text(), marker) {
			continue
		}
		for l := fset.Position(cg.Pos()).Line; l <= fset.Position(cg.End()).Line; l++ {
			lines[l] = true
		}
	}
	return lines
}
