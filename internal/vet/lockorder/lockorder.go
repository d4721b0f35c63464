// Package lockorder defines a cross-package lock-acquisition-order
// analyzer.
//
// Each package is summarized into facts: for every function, the set of
// lock classes it may (transitively) acquire, and the lock classes it
// holds when it invokes one of its func-typed parameters (the callback
// pattern used by core's sharded homes map). A lock class names the
// static identity of a mutex — `pkg.Type.field` for a struct field,
// `pkg.Type.field[]` for an element of a mutex array (stripes), and
// `pkg.var` for a package-level mutex. Local mutexes have no class: they
// join the held set for the contract rules below but add no edges, since
// they cannot participate in a cross-function ordering.
//
// While walking a function body the analyzer tracks the lexically held
// set: direct Lock/RLock and Unlock/RUnlock calls push and pop entries
// (class, rendered mutex expression such as c.mu, and Lock or RLock), a
// method whose name ends in Locked starts with its receiver's mu held
// (the repo-wide *Locked contract), and deferred calls are processed with
// the held set at the defer statement; a deferred release keeps its lock
// held for the rest of the body. Every acquisition observed while other
// classes are held contributes a directed edge held→acquired. Calls into
// other functions contribute edges to everything the callee may
// transitively acquire, using the exported facts for out-of-package
// callees; function-literal arguments are walked with the callee's
// published callback-held set added, so an edge like
// homeShard.mu→Node.mu materializes at the removeThen call site.
//
// Edges are exported both as object facts on the type that owns the
// source lock (those re-export transitively) and as a package fact
// (visible to direct importers). Each package then checks the merged
// graph and reports any cycle that one of its own edges closes, with the
// reverse witness path spelled out position by position. Cycles whose
// edges all live in sibling packages that never see each other's facts
// are caught by `ghbavet -lockgraph`, which loads the whole repo in one
// process and asserts global acyclicity.
//
// The same held set enforces the *Locked contract, in test files too
// (which add no edges):
//
//  1. Acquiring a mutex expression that is already held deadlocks (a second
//     RLock deadlocks against a writer queued between the two); in a *Locked
//     method, touching the receiver's own mu at all breaks the contract.
//  2. A call x.fooLocked(...) needs x.mu held, unless x is a fresh object:
//     a variable this body assigned &T{...}, T{...} or new(T) and has not
//     reassigned since, which is unpublished (the core.New pattern).
//  3. A deferred release must match the kind of the acquire it pairs with.
//  4. x.f.Store(...) on a sync/atomic.Pointer publishes a snapshot, a
//     writer-side act: it needs x.mu held exclusively (Lock or the *Locked
//     contract; RLock is not enough) unless x is fresh. Loads are free.
//
// Suppress a false positive with //ghbavet:ignore <reason>.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"ghba/internal/vet/vetutil"
)

// Edge is one observed lock-order constraint: To was (possibly
// transitively) acquired while From was held.
type Edge struct {
	From string // lock class held
	To   string // lock class acquired under it
	In   string // function in which the acquisition was observed
	Pos  string // short position (base.go:line) of the acquiring site
}

// ParamCall records that a function invokes its Index-th parameter while
// holding the given lock classes.
type ParamCall struct {
	Index int
	Held  []string
}

// FnLocks is the per-function fact: the transitive set of lock classes
// the function may acquire, and the callbacks it runs under locks.
type FnLocks struct {
	Acquires   []string
	ParamCalls []ParamCall
}

// AFact marks FnLocks as a serializable analysis fact.
func (*FnLocks) AFact() {}

func (f *FnLocks) String() string {
	return fmt.Sprintf("acquires(%s)", strings.Join(f.Acquires, ","))
}

// TypeLocks attaches the edges rooted at a type's locks to the type
// itself, so they re-export transitively with the type.
type TypeLocks struct {
	Edges []Edge
}

// AFact marks TypeLocks as a serializable analysis fact.
func (*TypeLocks) AFact() {}

func (f *TypeLocks) String() string { return fmt.Sprintf("lockedges(%d)", len(f.Edges)) }

// PkgLocks carries every edge observed in a package, including edges
// rooted at another package's locks (callback inversions).
type PkgLocks struct {
	Edges []Edge
}

// AFact marks PkgLocks as a serializable analysis fact.
func (*PkgLocks) AFact() {}

func (f *PkgLocks) String() string { return fmt.Sprintf("lockedges(%d)", len(f.Edges)) }

// Graph is the analyzer's per-package result: the edges observed in that
// package, for the -lockgraph driver to merge.
type Graph struct {
	Edges []Edge
}

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "detect lock-acquisition-order cycles across packages via exported lock facts",
	Run:        run,
	FactTypes:  []analysis.Fact{(*FnLocks)(nil), (*TypeLocks)(nil), (*PkgLocks)(nil)},
	ResultType: reflect.TypeOf((*Graph)(nil)),
}

// acqEvent is a direct mutex acquisition observed under a held set.
type acqEvent struct {
	held  []string
	class string
	pos   token.Pos
}

// callEvent is a static call observed under a held set.
type callEvent struct {
	held   []string
	callee *types.Func
	pos    token.Pos
}

// funcInfo accumulates one function's walk results.
type funcInfo struct {
	fn         *types.Func
	decl       *ast.FuncDecl
	test       bool // declared in a _test.go file: checked, but adds no edges
	entry      []heldLock
	acquires   []acqEvent
	calls      []callEvent
	paramCalls []ParamCall
}

type checker struct {
	pass   *analysis.Pass
	rep    *vetutil.Reporter
	funcs  map[*types.Func]*funcInfo
	order  []*funcInfo
	owners map[string]types.Object
	memo   map[*types.Func][]string
	busy   map[*types.Func]bool
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:   pass,
		rep:    vetutil.NewReporter(pass),
		funcs:  make(map[*types.Func]*funcInfo),
		owners: make(map[string]types.Object),
		memo:   make(map[*types.Func][]string),
		busy:   make(map[*types.Func]bool),
	}
	c.collect()
	// Round 1 fills ParamCalls so that round 2 can walk function-literal
	// arguments of in-package callees under the right held set.
	for _, fi := range c.order {
		c.walk(fi, false)
	}
	for _, fi := range c.order {
		fi.acquires, fi.calls = nil, nil
		c.walk(fi, true)
	}
	c.exportFnFacts()
	local := c.localEdges()
	c.exportEdgeFacts(local)
	c.checkCycles(local)

	g := &Graph{Edges: make([]Edge, len(local))}
	for i, e := range local {
		g.Edges[i] = e.Edge
	}
	return g, nil
}

// collect finds every function declaration with a body and seeds the
// *Locked entry-held contract.
func (c *checker) collect() {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{fn: fn, decl: fd, test: vetutil.IsTestFile(c.pass.Fset, fd.Pos())}
			if strings.HasSuffix(fd.Name.Name, "Locked") && fd.Recv != nil {
				cls, owner := receiverMuClass(fn)
				c.noteOwner(cls, owner)
				var expr string
				if names := fd.Recv.List[0].Names; len(names) == 1 && names[0].Name != "_" {
					expr = names[0].Name + ".mu"
				}
				if cls != "" || expr != "" {
					fi.entry = []heldLock{{class: cls, expr: expr}}
				}
			}
			c.funcs[fn] = fi
			c.order = append(c.order, fi)
		}
	}
}

// receiverMuClass returns the lock class of the receiver type's `mu`
// field, the mutex the *Locked naming contract refers to.
func receiverMuClass(fn *types.Func) (string, types.Object) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil
	}
	named, ok := deref(sig.Recv().Type()).(*types.Named)
	if !ok {
		return "", nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", nil
	}
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if fld.Name() == "mu" && isMutex(fld.Type()) {
			tn := named.Obj()
			return tn.Pkg().Path() + "." + tn.Name() + ".mu", tn
		}
	}
	return "", nil
}

func (c *checker) noteOwner(class string, owner types.Object) {
	if owner != nil && owner.Pkg() == c.pass.Pkg {
		c.owners[class] = owner
	}
}

// ---- body walking ----

type localClass struct {
	class string
	owner types.Object
}

// heldLock is one entry of a walker's held set.
type heldLock struct {
	class  string // lock class; "" for a local mutex, which adds no edges
	expr   string // rendered mutex expression, e.g. "c.mu"; "" for a callback's held class
	method string // Lock or RLock; "" when held by the *Locked contract
}

type walker struct {
	c        *checker
	fi       *funcInfo
	held     []heldLock
	locals   map[types.Object]localClass
	fresh    map[types.Object]bool // variables bound to an object this body built
	params   map[types.Object]int
	useFacts bool // the second, reporting round
}

func (c *checker) walk(fi *funcInfo, useFacts bool) {
	w := &walker{
		c:        c,
		fi:       fi,
		held:     append([]heldLock(nil), fi.entry...),
		locals:   make(map[types.Object]localClass),
		fresh:    make(map[types.Object]bool),
		params:   make(map[types.Object]int),
		useFacts: useFacts,
	}
	if p := fi.decl.Type.Params; p != nil {
		i := 0
		for _, fld := range p.List {
			for _, name := range fld.Names {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Signature); ok {
						w.params[obj] = i
					}
				}
				i++
			}
			if len(fld.Names) == 0 {
				i++
			}
		}
	}
	w.stmts(fi.decl.Body.List)
}

func (w *walker) info() *types.Info { return w.c.pass.TypesInfo }

func (w *walker) snapshot() []heldLock { return append([]heldLock(nil), w.held...) }

// classes returns the lock classes held, the sources of new edges.
func (w *walker) classes() []string {
	var out []string
	for _, h := range w.held {
		if h.class != "" {
			out = append(out, h.class)
		}
	}
	return out
}

// find returns the index of the innermost held entry for the mutex
// expression expr, or -1.
func (w *walker) find(expr string) int {
	for i := len(w.held) - 1; i >= 0; i-- {
		if expr != "" && w.held[i].expr == expr {
			return i
		}
	}
	return -1
}

// reportf reports in the second walk only, so each finding prints once.
func (w *walker) reportf(pos token.Pos, format string, args ...any) {
	if w.useFacts {
		w.c.rep.Reportf(pos, format, args...)
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
		w.expr(s.X)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.snapshot()
		w.stmt(s.Body)
		w.held = append([]heldLock(nil), saved...)
		if s.Else != nil {
			w.stmt(s.Else)
			w.held = saved
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.snapshot()
		w.stmt(s.Body)
		w.stmt(s.Post)
		w.held = saved
	case *ast.RangeStmt:
		w.expr(s.X)
		saved := w.snapshot()
		w.stmt(s.Body)
		w.held = saved
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.caseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.caseBodies(s.Body)
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			saved := w.snapshot()
			w.stmt(cc.Comm)
			w.stmts(cc.Body)
			w.held = saved
		}
	case *ast.DeferStmt:
		// Anything deferred runs with at most the locks held here.
		w.handleCall(s.Call, true)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's held set.
		w.handleGo(s.Call)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.expr(rhs)
		}
		w.trackAliases(s)
		for _, lhs := range s.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				w.expr(lhs)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				w.expr(v)
			}
			if len(vs.Names) == len(vs.Values) {
				for i, name := range vs.Names {
					w.trackAlias(name, vs.Values[i])
				}
			}
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
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *walker) caseBodies(body *ast.BlockStmt) {
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.expr(e)
		}
		saved := w.snapshot()
		w.stmts(cc.Body)
		w.held = saved
	}
}

// trackAliases records local variables that alias a classed mutex, so
// `stripe := &c.shipStripes[i]; stripe.Lock()` resolves to the stripes
// class, and which variables hold a fresh object from here on.
func (w *walker) trackAliases(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		var rhs ast.Expr // nil for a tuple assignment: neither alias nor fresh
		if len(s.Lhs) == len(s.Rhs) {
			rhs = s.Rhs[i]
		}
		w.trackAlias(id, rhs)
	}
}

func (w *walker) trackAlias(id *ast.Ident, rhs ast.Expr) {
	obj := w.info().ObjectOf(id)
	if obj == nil {
		return
	}
	w.fresh[obj] = isFreshExpr(rhs)
	if !isMutex(obj.Type()) {
		return
	}
	if cls, owner := w.classOf(rhs); cls != "" {
		w.locals[obj] = localClass{class: cls, owner: owner}
	}
}

func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.handleCall(n, false)
			return false
		case *ast.FuncLit:
			w.funcLit(n, w.held)
			return false
		}
		return true
	})
}

// funcLit walks a function literal's body under the given held set.
// Locals and params of the enclosing function stay visible (closures
// capture them), but held-set changes do not leak back out.
func (w *walker) funcLit(lit *ast.FuncLit, held []heldLock) {
	saved := w.held
	w.held = append([]heldLock(nil), held...)
	w.stmts(lit.Body.List)
	w.held = saved
}

// handleGo processes a go statement: argument expressions evaluate now,
// but the spawned call runs without the caller's locks.
func (w *walker) handleGo(call *ast.CallExpr) {
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			w.funcLit(lit, nil)
		} else {
			w.expr(arg)
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.funcLit(lit, nil)
	}
	saved := w.held
	w.held = nil
	w.checkContract(call)
	w.held = saved
}

// mutexOp applies a Lock/RLock/Unlock/RUnlock call to the held set and
// reports whether call is one. A deferred release runs at return, so it
// only checks its pairing and leaves the lock held for the rest of the body.
func (w *walker) mutexOp(call *ast.CallExpr, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isMutex(w.info().TypeOf(sel.X)) {
		return false
	}
	method, expr := sel.Sel.Name, vetutil.RecvBase(sel.X)
	switch method {
	case "Lock", "RLock":
		cls, owner := w.classOf(sel.X)
		if cls != "" {
			w.c.noteOwner(cls, owner)
			w.fi.acquires = append(w.fi.acquires, acqEvent{held: w.classes(), class: cls, pos: call.Lparen})
		}
		i := w.find(expr)
		switch {
		case i < 0:
			w.held = append(w.held, heldLock{class: cls, expr: expr, method: method})
		case w.held[i].method == "":
			w.reportContract(call, expr, method)
		default:
			detail := "double acquisition deadlocks"
			if w.held[i].method == "RLock" && method == "RLock" {
				detail = "a writer queued between the two RLocks deadlocks both"
			}
			w.reportf(call.Pos(), "%s.%s while %s is already held by %s: %s", expr, method, expr, w.held[i].method, detail)
		}
	case "Unlock", "RUnlock":
		i := w.find(expr)
		switch {
		case i < 0:
		case w.held[i].method == "":
			w.reportContract(call, expr, method)
		case deferred:
			if (method == "RUnlock") != (w.held[i].method == "RLock") {
				w.reportf(call.Pos(), "defer %s.%s pairs with %s.%s above: mismatched lock kinds corrupt the RWMutex", expr, method, expr, w.held[i].method)
			}
		default:
			w.held = append(w.held[:i:i], w.held[i+1:]...)
		}
	default:
		return false
	}
	return true
}

// reportContract flags a *Locked method touching the mutex its caller holds.
func (w *walker) reportContract(call *ast.CallExpr, expr, method string) {
	w.reportf(call.Pos(), "%s is suffixed Locked (caller holds %s) but calls %s.%s itself", w.fi.decl.Name.Name, expr, expr, method)
}

// checkContract applies the two rules on non-mutex calls: x.fooLocked(...)
// needs x.mu held, and an atomic.Pointer Store on x needs x.mu exclusively.
func (w *walker) checkContract(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if strings.HasSuffix(sel.Sel.Name, "Locked") {
		base := vetutil.RecvBase(sel.X)
		if base != "" && !w.isFresh(sel.X) && w.find(base+".mu") < 0 {
			w.reportf(call.Pos(), "call to %s.%s without holding %s.mu (callers of *Locked methods must hold the lock or be *Locked themselves)", base, sel.Sel.Name, base)
		}
		return
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if sel.Sel.Name != "Store" || !ok || !isNamed(w.info().TypeOf(field), "sync/atomic", "Pointer") || w.isFresh(field.X) {
		return // a bare local atomic.Pointer is unpublished state
	}
	base := vetutil.RecvBase(field.X)
	if i := w.find(base + ".mu"); base != "" && (i < 0 || w.held[i].method == "RLock") {
		w.reportf(call.Pos(), "%s.%s.Store publishes a snapshot without %s.mu held exclusively (atomic.Pointer swaps are writer-side: hold Lock, be a *Locked method, or act on a fresh object)", base, field.Sel.Name, base)
	}
}

// isFresh reports whether e is a variable that holds an object this body
// built and has not reassigned since.
func (w *walker) isFresh(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && w.fresh[w.info().ObjectOf(id)]
}

func (w *walker) handleCall(call *ast.CallExpr, deferred bool) {
	if w.mutexOp(call, deferred) {
		return
	}
	w.checkContract(call)

	// Receiver/base expression of the call may itself contain calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	} else if _, ok := call.Fun.(*ast.Ident); !ok {
		w.expr(call.Fun)
	}

	callee := typeutil.StaticCallee(w.info(), call)
	if callee != nil {
		callee = origin(callee)
	}

	var pcs []ParamCall
	if callee != nil && w.useFacts {
		pcs = w.c.paramCallsOf(callee)
	}
	heldFor := func(argIdx int) []heldLock {
		for _, pc := range pcs {
			if pc.Index == argIdx {
				merged := w.snapshot()
				for _, cls := range pc.Held {
					merged = append(merged, heldLock{class: cls})
				}
				return merged
			}
		}
		return w.held
	}

	for i, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			w.funcLit(lit, heldFor(i))
			continue
		}
		w.expr(arg)
		// A named function passed as a callback: treat it as called under
		// the callee's published callback-held set.
		if w.useFacts {
			if g := funcValue(w.info(), arg); g != nil {
				for _, pc := range pcs {
					if pc.Index == i {
						merged := append(w.classes(), pc.Held...)
						w.fi.calls = append(w.fi.calls, callEvent{held: merged, callee: origin(g), pos: arg.Pos()})
					}
				}
			}
		}
	}

	if callee != nil {
		w.fi.calls = append(w.fi.calls, callEvent{held: w.classes(), callee: callee, pos: call.Lparen})
		return
	}

	// Dynamic call: is it one of the enclosing function's parameters?
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := w.info().ObjectOf(id); obj != nil {
			if idx, ok := w.params[obj]; ok && len(w.classes()) > 0 {
				w.fi.paramCalls = append(w.fi.paramCalls, ParamCall{Index: idx, Held: w.classes()})
			}
		}
	}
}

// classOf resolves the lock class of a mutex-valued expression. The
// second result is the owning object (a TypeName for struct fields, a
// package-level Var), nil when unknown or foreign.
func (w *walker) classOf(e ast.Expr) (string, types.Object) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return w.classOf(e.X)
	case *ast.StarExpr:
		return w.classOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.classOf(e.X)
		}
	case *ast.IndexExpr:
		cls, owner := w.classOf(e.X)
		if cls == "" {
			return "", nil
		}
		return cls + "[]", owner
	case *ast.Ident:
		obj := w.info().ObjectOf(e)
		if obj == nil {
			return "", nil
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name(), v
			}
			if lc, ok := w.locals[obj]; ok {
				return lc.class, lc.owner
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := w.info().Selections[e]; ok && sel.Kind() == types.FieldVal {
			named, ok := deref(w.info().TypeOf(e.X)).(*types.Named)
			if !ok {
				return "", nil
			}
			tn := named.Obj()
			if tn.Pkg() == nil {
				return "", nil
			}
			return tn.Pkg().Path() + "." + tn.Name() + "." + e.Sel.Name, tn
		}
		if obj := w.info().ObjectOf(e.Sel); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name(), v
			}
		}
	}
	return "", nil
}

// ---- summaries and facts ----

// acquiresOf returns the transitive set of lock classes fn may acquire,
// from the local walk for in-package functions and from imported facts
// otherwise. Mutual recursion degrades to an under-approximation at the
// cycle's back edge.
func (c *checker) acquiresOf(fn *types.Func) []string {
	if v, ok := c.memo[fn]; ok {
		return v
	}
	if c.busy[fn] {
		return nil
	}
	fi := c.funcs[fn]
	if fi == nil {
		var fact FnLocks
		var out []string
		if c.pass.ImportObjectFact(fn, &fact) {
			out = fact.Acquires
		}
		c.memo[fn] = out
		return out
	}
	c.busy[fn] = true
	set := make(map[string]bool)
	for _, a := range fi.acquires {
		set[a.class] = true
	}
	for _, ce := range fi.calls {
		for _, cls := range c.acquiresOf(ce.callee) {
			set[cls] = true
		}
	}
	c.busy[fn] = false
	out := sortedKeys(set)
	c.memo[fn] = out
	return out
}

func (c *checker) paramCallsOf(fn *types.Func) []ParamCall {
	if fi := c.funcs[fn]; fi != nil {
		return fi.paramCalls
	}
	var fact FnLocks
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.ParamCalls
	}
	return nil
}

func (c *checker) exportFnFacts() {
	for _, fi := range c.order {
		acq := c.acquiresOf(fi.fn)
		if len(acq) == 0 && len(fi.paramCalls) == 0 {
			continue
		}
		c.pass.ExportObjectFact(fi.fn, &FnLocks{Acquires: acq, ParamCalls: fi.paramCalls})
	}
}

// localEdge pairs an Edge with the token position it was observed at.
type localEdge struct {
	Edge
	pos token.Pos
}

// localEdges derives this package's lock-order edges from the walk
// events, deduplicated by (From, To) keeping the first site.
func (c *checker) localEdges() []localEdge {
	seen := make(map[[2]string]bool)
	var out []localEdge
	add := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		key := [2]string{from, to}
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, localEdge{
			Edge: Edge{From: from, To: to, In: "", Pos: c.shortPos(pos)},
			pos:  pos,
		})
	}
	for _, fi := range c.order {
		if fi.test {
			continue
		}
		for _, a := range fi.acquires {
			for _, h := range a.held {
				add(h, a.class, a.pos)
			}
		}
		for _, ce := range fi.calls {
			acq := c.acquiresOf(ce.callee)
			for _, h := range ce.held {
				for _, to := range acq {
					add(h, to, ce.pos)
				}
			}
		}
	}
	// Stamp the observing function name and sort for determinism.
	for i := range out {
		out[i].In = c.enclosingFunc(out[i].pos)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func (c *checker) enclosingFunc(pos token.Pos) string {
	for _, fi := range c.order {
		if fi.decl.Pos() <= pos && pos <= fi.decl.End() {
			return fi.fn.FullName()
		}
	}
	return c.pass.Pkg.Path()
}

func (c *checker) shortPos(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// exportEdgeFacts publishes edges as a TypeLocks fact per owning local
// type (transitive visibility) and one PkgLocks package fact.
func (c *checker) exportEdgeFacts(local []localEdge) {
	if len(local) == 0 {
		return
	}
	byOwner := make(map[types.Object][]Edge)
	var all []Edge
	for _, e := range local {
		all = append(all, e.Edge)
		if owner, ok := c.owners[baseClass(e.From)]; ok {
			byOwner[owner] = append(byOwner[owner], e.Edge)
		}
	}
	var owners []types.Object
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].Name() < owners[j].Name() })
	for _, o := range owners {
		c.pass.ExportObjectFact(o, &TypeLocks{Edges: byOwner[o]})
	}
	c.pass.ExportPackageFact(&PkgLocks{Edges: all})
}

// baseClass strips the array-element suffix so stripe classes share their
// owner with the field class.
func baseClass(cls string) string { return strings.TrimSuffix(cls, "[]") }

// checkCycles merges local edges with every imported edge fact and
// reports each local edge that closes a cycle, with the reverse path.
func (c *checker) checkCycles(local []localEdge) {
	graph := make(map[string]map[string]Edge)
	add := func(e Edge) {
		m := graph[e.From]
		if m == nil {
			m = make(map[string]Edge)
			graph[e.From] = m
		}
		if _, ok := m[e.To]; !ok {
			m[e.To] = e
		}
	}
	for _, e := range local {
		add(e.Edge)
	}
	for _, of := range c.pass.AllObjectFacts() {
		if tl, ok := of.Fact.(*TypeLocks); ok {
			for _, e := range tl.Edges {
				add(e)
			}
		}
	}
	for _, pf := range c.pass.AllPackageFacts() {
		if pl, ok := pf.Fact.(*PkgLocks); ok {
			for _, e := range pl.Edges {
				add(e)
			}
		}
	}

	for _, e := range local {
		path := findPath(graph, e.To, e.From)
		if path == nil {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "lock order cycle: %s acquired while %s held, but reverse path exists: %s", e.To, e.From, e.To)
		for _, hop := range path {
			fmt.Fprintf(&b, " -> %s (%s, %s)", hop.To, hop.In, hop.Pos)
		}
		c.rep.Reportf(e.pos, "%s", b.String())
	}
}

// findPath returns the edges of a shortest path from src to dst, or nil.
func findPath(graph map[string]map[string]Edge, src, dst string) []Edge {
	type hop struct {
		node string
		via  []Edge
	}
	visited := map[string]bool{src: true}
	queue := []hop{{node: src}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		next := graph[h.node]
		var tos []string
		for to := range next {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if visited[to] {
				continue
			}
			via := append(append([]Edge(nil), h.via...), next[to])
			if to == dst {
				return via
			}
			visited[to] = true
			queue = append(queue, hop{node: to, via: via})
		}
	}
	return nil
}

// ---- small helpers ----

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	return t
}

// isMutex reports whether t is sync.Mutex, sync.RWMutex, or a pointer to
// one.
func isMutex(t types.Type) bool { return isNamed(t, "sync", "Mutex", "RWMutex") }

// isFreshExpr reports whether e builds a new object: T{...}, &T{...} or
// new(T).
func isFreshExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, isLit := e.X.(*ast.CompositeLit)
		return e.Op == token.AND && isLit
	case *ast.CallExpr:
		id, isIdent := e.Fun.(*ast.Ident)
		return isIdent && id.Name == "new"
	}
	return false
}

// isNamed reports whether t, or the type it points to, is pkg.name for
// one of names.
func isNamed(t types.Type, pkg string, names ...string) bool {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkg && slices.Contains(names, obj.Name())
}

func origin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// funcValue resolves an expression used as a function value to its static
// *types.Func, for named functions and method values.
func funcValue(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return funcValue(info, e.X)
	case *ast.Ident:
		if fn, ok := info.ObjectOf(e).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.ObjectOf(e.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
