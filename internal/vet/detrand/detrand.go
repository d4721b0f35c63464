// Package detrand polices determinism in the engine packages.
//
// The replay and equivalence tests (TestCrossBackendEquivalence, the
// fingerprint-pinned replays) rely on a strict contract: every random draw
// inside an engine comes from a caller-supplied, explicitly seeded
// *rand.Rand, never from process-global state, so a single-worker parallel
// run is bit-for-bit identical to the serial path. Three things break that
// contract silently:
//
//  1. Package-level math/rand functions (rand.Intn, rand.Float64,
//     rand.Shuffle, ...) draw from the global generator, whose state
//     depends on every other draw in the process. Only the explicit
//     constructors (rand.New, rand.NewSource, rand.NewZipf) are allowed.
//  2. Seeding from the clock (rand.NewSource(time.Now().UnixNano()))
//     makes every run unique — fine in a demo, fatal in a pinned replay.
//  3. Collecting map-iteration results into a slice without sorting it
//     leaks Go's randomized map order into homes, tallies, and wire
//     payloads. Engines must sort such slices (or iterate a pre-sorted
//     snapshot like core's ids cache) before the data flows anywhere.
//     The same leak in scalar form: a smallest/largest scan over a map
//     that keeps the first key to win a comparison hands every tie to
//     map order, unless the comparison falls back to the key itself.
//
// The analyzer fires only inside the engine packages (core, mds,
// bloom, bloomarray, group, trace, proto) — drivers and cmd/ binaries
// may use wall-clock seeds deliberately. Suppress a deliberate
// nondeterminism with //ghbavet:ignore <reason>.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"ghba/internal/vet/vetutil"
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var Analyzer = &analysis.Analyzer{
	Name:     "detrand",
	Doc:      "forbid global math/rand, clock seeding, and map-order-dependent results in engine packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// enginePackages are the packages whose outputs are pinned by fixed-seed
// fingerprint tests; everything they compute must be a pure function of
// (config, seed, trace).
var enginePackages = map[string]bool{
	"core":       true,
	"mds":        true,
	"bloom":      true,
	"bloomarray": true,
	"group":      true,
	"trace":      true,
	"proto":      true,
}

// allowedRandFuncs are the math/rand package-level functions that take
// their entropy source explicitly and therefore stay deterministic.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *analysis.Pass) (any, error) {
	if !enginePackages[pass.Pkg.Name()] {
		return nil, nil
	}
	rep := vetutil.NewReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// rand.New(rand.NewSource(time.Now()...)) nests two allowed
	// constructors around one clock call; report it once.
	clockReported := make(map[token.Pos]bool)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			if fn.Type().(*types.Signature).Recv() != nil {
				return // method on an explicit *rand.Rand — the contract
			}
			if !allowedRandFuncs[fn.Name()] {
				rep.Reportf(call.Pos(), "rand.%s draws from the process-global generator; draw from a caller-supplied *rand.Rand (or the struct's seeded rng field) instead", fn.Name())
				return
			}
			// Allowed constructor — but not when seeded from the clock.
			if now := clockCallIn(pass.TypesInfo, call.Args); now != nil && !clockReported[now.Pos()] {
				clockReported[now.Pos()] = true
				rep.Reportf(now.Pos(), "RNG seeded from time.Now makes replays unreproducible; seed from Config.Seed or a caller-supplied value")
			}
		}
	})

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		checkMapOrder(pass, rep, fd)
	})
	return nil, nil
}

// calleeFunc resolves the called function object, if statically known.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// clockCallIn returns a time.Now call appearing anywhere inside args, or
// nil. Catches both rand.NewSource(time.Now().UnixNano()) and
// rand.New(rand.NewSource(time.Now().UnixNano())).
func clockCallIn(info *types.Info, args []ast.Expr) ast.Node {
	var found ast.Node
	for _, arg := range args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				found = call
				return false
			}
			return true
		})
	}
	return found
}

// checkMapOrder flags slices appended to inside a range-over-map whose
// order is never fixed by a sort in the same function.
func checkMapOrder(pass *analysis.Pass, rep *vetutil.Reporter, fd *ast.FuncDecl) {
	type pending struct {
		name string
		pos  token.Pos
		end  token.Pos
	}
	var collected []pending

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, isRange := n.(*ast.RangeStmt)
		if !isRange {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkFirstWins(pass, rep, rng)
		// Find s = append(s, ...) in the body where s is an identifier
		// declared outside the range statement.
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			assign, isAssign := m.(*ast.AssignStmt)
			if !isAssign || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
				return true
			}
			lhs, isIdent := assign.Lhs[0].(*ast.Ident)
			if !isIdent {
				return true
			}
			call, isCall := assign.Rhs[0].(*ast.CallExpr)
			if !isCall {
				return true
			}
			if fn, isFnIdent := call.Fun.(*ast.Ident); !isFnIdent || fn.Name != "append" {
				return true
			}
			if obj := pass.TypesInfo.Uses[lhs]; obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
				return true // declared inside the loop; dies each iteration
			}
			collected = append(collected, pending{name: lhs.Name, pos: assign.Pos(), end: assign.End()})
			return true
		})
		return true
	})

	for _, p := range collected {
		if !sortedLater(pass, fd.Body, p.name, p.end) {
			rep.Reportf(p.pos, "%s collects map-iteration results; map order is randomized — sort %s before it flows into homes, tallies, or the wire", p.name, p.name)
		}
	}
}

// checkFirstWins flags a best-so-far scan over a map: an if inside the
// range body whose condition orders two values and whose body stores the
// range key. Equal candidates then resolve to whichever the randomized
// iteration reaches first. A condition that also orders the key itself
// (a tie-break, or a plain smallest-key scan) is deterministic and passes.
func checkFirstWins(pass *analysis.Pass, rep *vetutil.Reporter, rng *ast.RangeStmt) {
	keyIdent, isIdent := rng.Key.(*ast.Ident)
	if !isIdent || keyIdent.Name == "_" {
		return
	}
	key := pass.TypesInfo.ObjectOf(keyIdent)
	mentionsKey := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, isIdent := m.(*ast.Ident); isIdent && pass.TypesInfo.ObjectOf(id) == key {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		ifStmt, isIf := n.(*ast.IfStmt)
		if !isIf {
			return true
		}
		ordered, keyed := false, false
		ast.Inspect(ifStmt.Cond, func(m ast.Node) bool {
			if bin, isBin := m.(*ast.BinaryExpr); isBin {
				switch bin.Op {
				case token.LSS, token.GTR, token.LEQ, token.GEQ:
					ordered = true
					keyed = keyed || mentionsKey(bin)
				}
			}
			return true
		})
		if !ordered || keyed {
			return true
		}
		for _, stmt := range ifStmt.Body.List {
			assign, isAssign := stmt.(*ast.AssignStmt)
			if !isAssign || assign.Tok != token.ASSIGN {
				continue
			}
			for _, rhs := range assign.Rhs {
				if mentionsKey(rhs) {
					rep.Reportf(assign.Pos(), "%s is kept by a first-wins comparison inside a map range; ties fall to randomized map order — range over sorted keys, or break ties on %s", keyIdent.Name, keyIdent.Name)
					return true
				}
			}
		}
		return true
	})
}

// sortedLater reports whether name is passed to a sort.* or slices.Sort*
// call after pos in the body.
func sortedLater(pass *analysis.Pass, body *ast.BlockStmt, name string, pos token.Pos) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() < pos {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			// The slice may be the argument itself (sort.Slice(s, ...)), a
			// derived spelling (&s, s[:]), or wrapped in adapters like
			// sort.Sort(sort.Reverse(sort.IntSlice(s))) — walk the whole
			// argument expression for any mention.
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, isIdent := a.(*ast.Ident); isIdent && id.Name == name {
					sorted = true
				}
				return !sorted
			})
			if sorted {
				return false
			}
		}
		return true
	})
	return sorted
}
