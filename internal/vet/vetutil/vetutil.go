// Package vetutil carries the plumbing shared by the ghbavet analyzers:
// suppression comments, receiver-expression rendering and test-file
// detection.
//
// Suppression: a diagnostic is dropped when the offending line, or the line
// directly above it, carries a comment of the form
//
//	//ghbavet:ignore reason...
//
// The reason is mandatory in spirit (reviewers will ask) but not enforced.
package vetutil

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// ignoreDirective is the comment prefix that suppresses a finding.
const ignoreDirective = "//ghbavet:ignore"

// Reporter filters diagnostics through the //ghbavet:ignore directive.
type Reporter struct {
	pass    *analysis.Pass
	ignored map[string]map[int]bool // filename → set of suppressed lines
}

// NewReporter scans the pass's files for ignore directives.
func NewReporter(pass *analysis.Pass) *Reporter {
	r := &Reporter{pass: pass, ignored: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				lines := r.ignored[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					r.ignored[pos.Filename] = lines
				}
				// Suppress the directive's own line and the next one, so the
				// directive works both trailing the offending line and on a
				// line of its own above it.
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return r
}

// Reportf emits a diagnostic unless an ignore directive covers pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.pass.Fset.Position(pos)
	if lines := r.ignored[p.Filename]; lines != nil && lines[p.Line] {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

// RecvBase returns the textual base of a selector chain — for c.mu.Lock()
// it returns "c"; for c.sub.mu.Lock() it returns "c.sub". Two lock sites
// guard the same state exactly when their bases render identically inside
// one function body, which is the invariant the lexical checks rely on.
func RecvBase(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := RecvBase(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return RecvBase(e.X)
	case *ast.IndexExpr:
		base := RecvBase(e.X)
		if base == "" {
			return ""
		}
		return base + "[...]"
	}
	return ""
}

// IsTestFile reports whether pos lies in a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
