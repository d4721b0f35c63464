// Package hotalloc defines an analyzer that turns the digest pipeline's
// zero-allocation claim — measured at runtime as the benchmark's
// ghba.allocs_per_op — into a compile-time contract.
//
// A function tagged with a `//ghbavet:hotpath` doc comment must be
// transitively free of allocating constructs:
//
//   - composite literals that escape (&T{...}) and slice/map literals;
//   - make and new;
//   - append without capacity evidence — the appended-to slice must
//     derive from a caller-provided parameter or a scratch struct field
//     (the `buf[:0]` reuse idiom), anything else may grow;
//   - string concatenation of non-constant operands and string/[]byte
//     conversions;
//   - interface boxing of non-pointer values at call sites;
//   - closures that escape (passed as arguments, returned, stored) and
//     go statements.
//
// The contract crosses package boundaries bottom-up: every package
// exports an AllocFact for each function that may allocate (directly or
// via its callees), so a tagged function calling an innocent-looking
// helper three packages away is flagged at the call site with the
// helper's witness. This is the same contract as "the hotpath tag
// propagates to callees", inverted: instead of pushing the tag down the
// call graph, allocation evidence bubbles up to wherever a tag is.
//
// Calls into a small list of known-clean runtime packages (sync,
// sync/atomic, sort, slices, math/bits, ...) are trusted; calls into
// known-allocating packages (fmt, strings, strconv, ...) are flagged
// even when no fact is available; dynamic calls through interfaces are
// assumed clean — the mux codec writes to a net.Conn.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"ghba/internal/vet/vetutil"
)

// HotTag is the doc-comment directive marking a hot-path function.
const HotTag = "//ghbavet:hotpath"

// AllocFact marks a function that may allocate, with a short witness of
// why.
type AllocFact struct {
	Witness string
}

// AFact marks AllocFact as a serializable analysis fact.
func (*AllocFact) AFact() {}

func (f *AllocFact) String() string { return "allocates: " + f.Witness }

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "require //ghbavet:hotpath functions to be transitively allocation-free",
	Run:       run,
	FactTypes: []analysis.Fact{(*AllocFact)(nil)},
}

// cleanPkgs are trusted not to allocate on the paths hot code uses.
var cleanPkgs = map[string]bool{
	"sync": true, "sync/atomic": true,
	"math": true, "math/bits": true,
	"sort": true, "slices": true, "cmp": true,
	"encoding/binary": true, "unicode/utf8": true,
	"runtime": true, "time": true,
}

// dirtyPkgs allocate on essentially every entry point; calls are flagged
// even without a fact.
var dirtyPkgs = map[string]bool{
	"fmt": true, "errors": true, "strings": true, "strconv": true,
	"bytes": true, "os": true, "io": true, "log": true,
	"reflect": true, "regexp": true, "encoding/json": true, "context": true,
}

// allocSite is one allocating construct found in a function body.
type allocSite struct {
	pos token.Pos
	msg string
}

// callSite is one statically resolved call.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// fnAlloc is a function's walk result.
type fnAlloc struct {
	decl   *ast.FuncDecl
	hot    bool
	allocs []allocSite
	calls  []callSite
	// alloc/witness are resolved by the fixpoint.
	alloc   bool
	witness string
}

type checker struct {
	pass  *analysis.Pass
	rep   *vetutil.Reporter
	funcs map[*types.Func]*fnAlloc
	order []*types.Func
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:  pass,
		rep:   vetutil.NewReporter(pass),
		funcs: make(map[*types.Func]*fnAlloc),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if vetutil.IsTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fa := &fnAlloc{decl: fd, hot: isTagged(fd)}
			c.funcs[fn] = fa
			c.order = append(c.order, fn)
			w := &walker{c: c, fa: fa, evidenced: make(map[types.Object]bool)}
			w.markParams(fd)
			w.stmts(fd.Body.List)
		}
	}

	// Fixpoint: allocation status flows up the in-package call graph;
	// cross-package callees resolve through facts.
	for changed := true; changed; {
		changed = false
		for _, fn := range c.order {
			fa := c.funcs[fn]
			if fa.alloc {
				continue
			}
			if len(fa.allocs) > 0 {
				fa.alloc = true
				fa.witness = fmt.Sprintf("%s at %s", fa.allocs[0].msg, c.shortPos(fa.allocs[0].pos))
				changed = true
				continue
			}
			for _, cs := range fa.calls {
				if w, bad := c.calleeAllocates(cs.callee); bad {
					fa.alloc = true
					fa.witness = w
					changed = true
					break
				}
			}
		}
	}

	// Diagnostics for tagged functions.
	for _, fn := range c.order {
		fa := c.funcs[fn]
		if !fa.hot {
			continue
		}
		for _, a := range fa.allocs {
			c.rep.Reportf(a.pos, "hot path: %s", a.msg)
		}
		for _, cs := range fa.calls {
			if w, bad := c.calleeAllocates(cs.callee); bad {
				c.rep.Reportf(cs.pos, "hot path: call to %s allocates (%s)", cs.callee.FullName(), w)
			}
		}
	}

	// Export facts for allocating functions.
	for _, fn := range c.order {
		if fa := c.funcs[fn]; fa.alloc {
			c.pass.ExportObjectFact(fn, &AllocFact{Witness: fa.witness})
		}
	}
	return nil, nil
}

// calleeAllocates resolves a callee's allocation status: trusted clean
// packages first, then in-package summaries, imported facts, and the
// dirty-package list.
func (c *checker) calleeAllocates(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	pkg := fn.Pkg()
	if pkg != nil && cleanPkgs[pkg.Path()] {
		return "", false
	}
	if fa, ok := c.funcs[fn]; ok {
		return fa.witness, fa.alloc
	}
	var fact AllocFact
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.Witness, true
	}
	if pkg != nil && dirtyPkgs[pkg.Path()] {
		return "package " + pkg.Path() + " allocates", true
	}
	return "", false
}

func (c *checker) shortPos(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func isTagged(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, cm := range fd.Doc.List {
		if strings.HasPrefix(cm.Text, HotTag) {
			return true
		}
	}
	return false
}

// ---- body walking ----

type walker struct {
	c  *checker
	fa *fnAlloc
	// evidenced holds locals whose backing capacity is caller-provided
	// (params, reslices of params or struct fields, append results over
	// evidenced slices).
	evidenced map[types.Object]bool
}

func (w *walker) info() *types.Info { return w.c.pass.TypesInfo }

func (w *walker) flag(pos token.Pos, format string, args ...any) {
	w.fa.allocs = append(w.fa.allocs, allocSite{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (w *walker) markParams(fd *ast.FuncDecl) {
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, n := range f.Names {
				if obj := w.info().Defs[n]; obj != nil {
					w.evidenced[obj] = true
				}
			}
		}
	}
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			if obj := w.info().Defs[n]; obj != nil {
				w.evidenced[obj] = true
			}
		}
	}
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		// A directly invoked literal runs inline; its body is hot but the
		// closure itself does not escape.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				w.stmts(lit.Body.List)
				for _, a := range call.Args {
					w.expr(a)
				}
				return
			}
		}
		w.expr(s.X)
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			if lit, ok := rhs.(*ast.FuncLit); ok && len(s.Lhs) == len(s.Rhs) {
				if id, ok := s.Lhs[i].(*ast.Ident); ok && w.isLocal(id) {
					// Closure bound to a local and (presumably) invoked
					// inline: its body is hot, the closure itself does
					// not escape.
					w.stmts(lit.Body.List)
					continue
				}
			}
			w.expr(rhs)
		}
		w.trackEvidence(s)
		for _, lhs := range s.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				w.expr(lhs)
			}
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		w.stmts(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		w.stmts(s.Body)
	case *ast.DeferStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.flag(s.Pos(), "deferred closure allocates")
			w.stmts(lit.Body.List)
			return
		}
		w.expr(s.Call)
	case *ast.GoStmt:
		w.flag(s.Pos(), "go statement allocates a goroutine")
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					w.expr(v)
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *walker) isLocal(id *ast.Ident) bool {
	obj := w.info().ObjectOf(id)
	return obj != nil && obj.Pkg() == w.c.pass.Pkg && obj.Parent() != w.c.pass.Pkg.Scope()
}

// trackEvidence extends the capacity-evidence set through assignments:
// reslices of evidenced or field-backed memory, and append results over
// evidenced slices.
func (w *walker) trackEvidence(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.info().ObjectOf(id)
		if obj == nil {
			continue
		}
		if w.hasCapEvidence(s.Rhs[i]) {
			w.evidenced[obj] = true
		}
	}
}

// hasCapEvidence reports whether appending to e cannot outgrow memory
// the caller (or a scratch struct) provided: parameters, struct fields,
// reslices of either, and append chains over them.
func (w *walker) hasCapEvidence(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := w.info().ObjectOf(e)
		return obj != nil && w.evidenced[obj]
	case *ast.SliceExpr:
		return w.hasCapEvidence(e.X)
	case *ast.SelectorExpr:
		// A field of some struct: the scratch-buffer idiom.
		if sel, ok := w.info().Selections[e]; ok && sel.Kind() == types.FieldVal {
			return true
		}
	case *ast.CallExpr:
		if id, ok := unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if tv, ok := w.info().Types[e.Fun]; ok && tv.IsBuiltin() && len(e.Args) > 0 {
				return w.hasCapEvidence(e.Args[0])
			}
		}
		// A call returning a slice it sized itself (e.g. InsertSorted)
		// keeps the caller's evidence only if its own append was
		// evidence-clean, which the callee's AllocFact already captures.
		if callee := typeutil.StaticCallee(w.info(), e); callee != nil {
			if _, bad := w.c.calleeAllocates(callee.Origin()); !bad {
				return true
			}
		}
	}
	return false
}

func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n)
			return false
		case *ast.FuncLit:
			// Reached in a value position: the closure escapes.
			w.flag(n.Pos(), "escaping closure allocates")
			w.stmts(n.Body.List)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := unparen(n.X).(*ast.CompositeLit); ok {
					w.flag(n.Pos(), "&composite literal escapes to the heap")
					for _, el := range cl.Elts {
						w.expr(el)
					}
					return false
				}
			}
		case *ast.CompositeLit:
			switch types.Unalias(w.info().TypeOf(n)).Underlying().(type) {
			case *types.Slice, *types.Map:
				w.flag(n.Pos(), "slice/map literal allocates")
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := w.info().Types[n]; ok && tv.Value == nil {
					if basic, ok := types.Unalias(tv.Type).Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						w.flag(n.Pos(), "string concatenation allocates")
					}
				}
			}
		}
		return true
	})
}

func (w *walker) call(call *ast.CallExpr) {
	info := w.info()
	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := types.Unalias(tv.Type).Underlying()
		src := info.TypeOf(call.Args[0])
		switch target.(type) {
		case *types.Basic:
			if target.(*types.Basic).Info()&types.IsString != 0 && src != nil && !types.Identical(types.Unalias(src).Underlying(), target) {
				w.flag(call.Pos(), "conversion to string allocates")
			}
		case *types.Slice:
			if src != nil && !types.Identical(types.Unalias(src).Underlying(), target) {
				w.flag(call.Pos(), "conversion to slice allocates")
			}
		}
		w.expr(call.Args[0])
		return
	}

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsBuiltin() {
			switch id.Name {
			case "append":
				if len(call.Args) > 0 && !w.hasCapEvidence(call.Args[0]) {
					w.flag(call.Pos(), "append without capacity evidence may allocate")
				}
			case "make":
				w.flag(call.Pos(), "make allocates")
			case "new":
				w.flag(call.Pos(), "new allocates")
			}
			for _, a := range call.Args {
				w.expr(a)
			}
			return
		}
	}

	callee := typeutil.StaticCallee(info, call)
	if callee != nil {
		callee = callee.Origin()
		w.fa.calls = append(w.fa.calls, callSite{pos: call.Pos(), callee: callee})
	}
	w.checkBoxing(call)
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	} else if _, ok := unparen(call.Fun).(*ast.Ident); !ok {
		w.expr(call.Fun)
	}
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			w.flag(lit.Pos(), "closure passed as argument allocates")
			w.stmts(lit.Body.List)
			continue
		}
		w.expr(a)
	}
}

// checkBoxing flags non-pointer values implicitly converted to interface
// parameters.
func (w *walker) checkBoxing(call *ast.CallExpr) {
	sig, ok := types.Unalias(w.info().TypeOf(call.Fun)).Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := types.Unalias(sig.Params().At(np - 1).Type()).Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !types.IsInterface(types.Unalias(pt).Underlying()) {
			continue
		}
		at := w.info().TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: boxes without allocating
		}
		w.flag(arg.Pos(), "interface boxing of non-pointer value allocates")
	}
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
