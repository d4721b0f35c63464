// Package wireguard keeps the wire protocol fully wired.
//
// Every opcode in internal/proto's const block (opQueryEntry, opLookupBatch,
// ...) implies four obligations that live in four different files, which is
// exactly how a new batch opcode ships half-finished: the const compiles,
// the client sends it, and the daemon answers "unknown message type" at
// runtime. For each constant named op* the analyzer requires:
//
//  1. an entry in the opNames table (the per-opcode RPC counters are
//     indexed by it),
//  2. a case clause in a server dispatch switch (the daemon must answer),
//  3. a client-side reference outside the table and the dispatch — an
//     opcode nobody sends is dead weight or a symptom of a half-rename,
//  4. when test files are in the compilation unit: a reference from a
//     _test.go file, i.e. a round-trip or fuzz test exercising its codec
//     pair (the wire round-trip suite references each opcode by name).
//
// Checks 1–3 run on the plain package; check 4 runs only on the [test]
// variant so go vet reports each finding once. Suppress a deliberately
// unreferenced opcode (e.g. one reserved for a wire-compat window) with
// //ghbavet:ignore <reason>.
package wireguard

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"ghba/internal/vet/vetutil"
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var Analyzer = &analysis.Analyzer{
	Name:     "wireguard",
	Doc:      "every proto opcode needs an opNames entry, a dispatch case, a sender, and a round-trip test",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// opcodeUse classifies where an opcode constant is referenced.
type opcodeUse struct {
	inNamesTable bool // key of a composite-literal entry
	inDispatch   bool // expression of a case clause
	inClient     bool // any other non-test reference
	inTest       bool // any reference from a _test.go file
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() != "proto" {
		return nil, nil
	}
	rep := vetutil.NewReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	hasTestFiles := false
	for _, f := range pass.Files {
		if vetutil.IsTestFile(pass.Fset, f.Pos()) {
			hasTestFiles = true
			break
		}
	}

	// Collect the opcode constants declared in this package (non-test files).
	opcodes := make(map[*types.Const]*ast.Ident)
	ins.Preorder([]ast.Node{(*ast.ValueSpec)(nil)}, func(n ast.Node) {
		spec := n.(*ast.ValueSpec)
		for _, name := range spec.Names {
			if !isOpcodeName(name.Name) {
				continue
			}
			c, isConst := pass.TypesInfo.Defs[name].(*types.Const)
			if !isConst || vetutil.IsTestFile(pass.Fset, name.Pos()) {
				continue
			}
			if basic, isBasic := c.Type().Underlying().(*types.Basic); !isBasic || basic.Info()&types.IsInteger == 0 {
				continue
			}
			opcodes[c] = name
		}
	})
	if len(opcodes) == 0 {
		return nil, nil
	}

	// Classify every use by its syntactic context.
	uses := make(map[*types.Const]*opcodeUse, len(opcodes))
	for c := range opcodes {
		uses[c] = &opcodeUse{}
	}
	ins.WithStack([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		id := n.(*ast.Ident)
		c, isConst := pass.TypesInfo.Uses[id].(*types.Const)
		if !isConst {
			return true
		}
		use, tracked := uses[c]
		if !tracked {
			return true
		}
		if vetutil.IsTestFile(pass.Fset, id.Pos()) {
			use.inTest = true
			return true
		}
		switch classifyUse(id, stack) {
		case "names":
			use.inNamesTable = true
		case "dispatch":
			use.inDispatch = true
		default:
			use.inClient = true
		}
		return true
	})

	// Report in declaration order for stable output.
	consts := make([]*types.Const, 0, len(opcodes))
	for c := range opcodes {
		consts = append(consts, c)
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].Pos() < consts[j].Pos() })

	for _, c := range consts {
		id, use := opcodes[c], uses[c]
		if hasTestFiles {
			// The [test] variant owns exactly one check, so go vet prints
			// each finding once across the two compilation units.
			if !use.inTest {
				rep.Reportf(id.Pos(), "opcode %s has no round-trip or fuzz test referencing it; add it to the wire round-trip suite before shipping", id.Name)
			}
			continue
		}
		if !use.inNamesTable {
			rep.Reportf(id.Pos(), "opcode %s is not registered in the opNames table; its RPC counter will read op_%d", id.Name, constValue(c))
		}
		if !use.inDispatch {
			rep.Reportf(id.Pos(), "opcode %s has no server dispatch case; daemons will answer it with an unknown-message error", id.Name)
		}
		if !use.inClient {
			rep.Reportf(id.Pos(), "opcode %s is never sent by any client path; half-wired or dead — remove it or finish wiring it", id.Name)
		}
	}
	return nil, nil
}

// isOpcodeName matches the const block convention: opQueryEntry, opPing...
func isOpcodeName(name string) bool {
	if !strings.HasPrefix(name, "op") || len(name) < 3 {
		return false
	}
	r := name[2]
	return r >= 'A' && r <= 'Z'
}

// classifyUse looks up the stack to decide what role a reference plays.
func classifyUse(id *ast.Ident, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.KeyValueExpr:
			if parent.Key == id {
				if i > 0 {
					if _, isLit := stack[i-1].(*ast.CompositeLit); isLit {
						return "names"
					}
				}
			}
		case *ast.CaseClause:
			for _, expr := range parent.List {
				if expr.Pos() <= id.Pos() && id.Pos() < expr.End() {
					return "dispatch"
				}
			}
		case *ast.FuncDecl, *ast.File:
			return "client"
		}
	}
	return "client"
}

func constValue(c *types.Const) int64 {
	if c.Val() == nil {
		return -1
	}
	if v, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
		return v
	}
	return -1
}
