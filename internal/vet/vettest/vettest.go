// Package vettest is a self-contained analysistest: it runs one analyzer
// over fixture packages under testdata/src/<pkg> and checks diagnostics
// against // want "regexp" comments, the same convention
// golang.org/x/tools/go/analysis/analysistest uses.
//
// The real analysistest depends on go/packages and an external go list
// invocation; this harness loads the fixtures through internal/vet/srcload
// (stdlib imports resolve through the source importer), so the analyzer
// suites run hermetically inside a plain `go test ./...`. Fixture packages
// may import each other GOPATH-style — package "b/inner" lives in
// testdata/src/b/inner — and facts exported while analyzing a dependency
// are visible while analyzing its dependents, which is what the
// cross-package analyzer, lockorder, exercises.
package vettest

import (
	"go/token"
	"regexp"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"ghba/internal/vet/srcload"
)

// wantRe extracts the quoted expectations from a // want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one // want entry: a diagnostic regexp anchored to a line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run analyzes each fixture package under testdata/src independently and
// reports mismatches between the analyzer's diagnostics and the fixtures'
// want comments as test failures. Each package gets a fresh loader and
// fact store; imports of sibling fixture packages still resolve, and the
// dependencies' facts are computed, but only the named package's files are
// checked for want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(strings.ReplaceAll(pkg, "/", "_"), func(t *testing.T) {
			t.Helper()
			runPackages(t, testdata, a, pkg)
		})
	}
}

// RunMulti analyzes the named fixture packages in one shared session:
// one loader, one fact store, diagnostics and want comments checked across
// all of them. List dependencies before dependents — diagnostics are
// collected in listed order, and a package analyzed early as a mere
// dependency of another reports nothing. This is the harness for
// cross-package fact scenarios (a lock cycle spanning two packages).
func RunMulti(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	runPackages(t, testdata, a, pkgs...)
}

func runPackages(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := srcload.NewLoader(srcload.DirResolver(strings.TrimSuffix(testdata, "/") + "/src"))
	loader.IncludeTests = true
	runner := srcload.NewRunner(loader.Fset)

	var checked []*srcload.Package
	var diags []analysis.Diagnostic
	for _, path := range pkgs {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		d, _, err := runner.Run(a, pkg)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checked = append(checked, pkg)
		diags = append(diags, d...)
	}
	checkExpectations(t, loader.Fset, checked, a, diags)
}

// checkExpectations matches diagnostics against want comments in the
// checked packages' files.
func checkExpectations(t *testing.T, fset *token.FileSet, pkgs []*srcload.Package, a *analysis.Analyzer, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					idx := strings.Index(text, "want ")
					if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(text[idx+len("want "):], -1) {
						lit := m[1]
						if lit == "" {
							lit = m[2]
						}
						re, err := regexp.Compile(lit)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, lit, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", pos.Filename, pos.Line, a.Name, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
}
