// Command ghbavet runs the repo's custom static-analysis suite (see
// internal/vet): detrand, lockorder and snapcheck. It has the
// two entry points CI uses:
//
//	go vet -vettool=$(which ghbavet) ./...   go vet drives the analyzers
//	                                         package by package over the
//	                                         unitchecker protocol
//	ghbavet -lockgraph                       print the repo lock graph as
//	                                         DOT; fail if it has a cycle
//
// Exit status is non-zero when any analyzer reports a finding.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"ghba/internal/vet"
	"ghba/internal/vet/lockorder"
	"ghba/internal/vet/srcload"
)

func main() {
	// go vet never passes -lockgraph, so everything else — its -V=full and
	// -flags probes, the per-package <unit>.cfg runs — is unitchecker's.
	if len(os.Args) > 1 && os.Args[1] == "-lockgraph" {
		os.Exit(runLockGraph())
	}
	unitchecker.Main(vet.Analyzers...) // exits
}

// runLockGraph prints the repo lock graph as DOT. Exit status 1 means the
// graph has a cycle.
func runLockGraph() int {
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghbavet: %v\n", err)
		return 2
	}
	edges, err := lockGraph(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghbavet: %v\n", err)
		return 2
	}
	writeDOT(os.Stdout, edges)
	if cyc := findCycle(edges); cyc != nil {
		fmt.Fprintf(os.Stderr, "ghbavet: lock graph has a cycle: %s\n", strings.Join(cyc, " -> "))
		return 1
	}
	fmt.Fprintf(os.Stderr, "ghbavet: lock graph: %d classes, %d edges, acyclic\n", countClasses(edges), len(edges))
	return 0
}

// lockGraph loads the engine packages of the module at root in one process,
// runs lockorder over them with a shared fact store, and returns the merged
// per-package graphs, one edge per ordered pair of lock classes.
func lockGraph(root string) ([]lockorder.Edge, error) {
	resolve := srcload.ModuleResolver("ghba", root)
	loader := srcload.NewLoader(func(path string) (string, bool) {
		if dir, ok := resolve(path); ok {
			return dir, true
		}
		dir := filepath.Join(root, "vendor", filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	})
	runner := srcload.NewRunner(loader.Fset)

	pkgs, err := enginePackages(root)
	if err != nil {
		return nil, err
	}
	var edges []lockorder.Edge
	for _, path := range pkgs {
		p, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		_, res, err := runner.Run(lockorder.Analyzer, p)
		if err != nil {
			return nil, err
		}
		if g, ok := res.(*lockorder.Graph); ok && g != nil {
			edges = append(edges, g.Edges...)
		}
	}
	return dedupEdges(edges), nil
}

// writeDOT renders edges as the DOT file docs/lockgraph.dot commits.
func writeDOT(w io.Writer, edges []lockorder.Edge) {
	fmt.Fprintln(w, "digraph lockorder {")
	fmt.Fprintln(w, "\trankdir=LR;")
	fmt.Fprintln(w, "\tnode [shape=box, fontname=\"monospace\"];")
	for _, e := range edges {
		// Labelled by the acquiring function, not file:line, so the
		// committed DOT changes only when the graph does.
		fmt.Fprintf(w, "\t%q -> %q [label=%q];\n", e.From, e.To, e.In)
	}
	fmt.Fprintln(w, "}")
}

// countClasses returns how many lock classes edges connect.
func countClasses(edges []lockorder.Edge) int {
	nodes := make(map[string]bool)
	for _, e := range edges {
		nodes[e.From], nodes[e.To] = true, true
	}
	return len(nodes)
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// enginePackages lists the root package and everything under internal/
// except internal/vet itself (the analysis layer holds no engine locks
// and would drag the vendored analysis framework into the load).
func enginePackages(root string) ([]string, error) {
	var pkgs []string
	if hasGoFiles(root) {
		pkgs = append(pkgs, "ghba")
	}
	base := filepath.Join(root, "internal")
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") {
			return filepath.SkipDir
		}
		if path == filepath.Join(base, "vet") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			pkgs = append(pkgs, "ghba/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(pkgs)
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

func dedupEdges(edges []lockorder.Edge) []lockorder.Edge {
	seen := make(map[[2]string]bool)
	var out []lockorder.Edge
	for _, e := range edges {
		key := [2]string{e.From, e.To}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// findCycle returns one cycle of edges as a node path, or nil.
func findCycle(edges []lockorder.Edge) []string {
	graph := make(map[string][]string)
	for _, e := range edges {
		graph[e.From] = append(graph[e.From], e.To)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	var cycle []string
	var visit func(n string) bool
	visit = func(n string) bool {
		color[n] = gray
		stack = append(stack, n)
		next := append([]string(nil), graph[n]...)
		sort.Strings(next)
		for _, m := range next {
			switch color[m] {
			case white:
				if visit(m) {
					return true
				}
			case gray:
				for i, s := range stack {
					if s == m {
						cycle = append(append([]string(nil), stack[i:]...), m)
						return true
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	var nodes []string
	for n := range graph {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if color[n] == white && visit(n) {
			return cycle
		}
	}
	return nil
}
