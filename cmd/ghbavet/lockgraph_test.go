package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestLockGraphMatchesDocs builds the lock graph in process, as
// `ghbavet -lockgraph` does, and requires the committed docs/lockgraph.dot
// and README's "current engine lock graph" sentence to describe it, so a
// lock edge that appears, disappears or moves shows in `go test ./...`.
func TestLockGraphMatchesDocs(t *testing.T) {
	root := filepath.Join("..", "..")
	edges, err := lockGraph(root)
	if err != nil {
		t.Fatal(err)
	}
	if cyc := findCycle(edges); cyc != nil {
		t.Errorf("lock graph has a cycle: %v", cyc)
	}
	var got bytes.Buffer
	writeDOT(&got, edges)
	want, err := os.ReadFile(filepath.Join(root, "docs", "lockgraph.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("docs/lockgraph.dot is stale; regenerate it with `ghbavet -lockgraph > docs/lockgraph.dot`. The graph is:\n%s", got.Bytes())
	}

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`The current engine lock graph \((\d+) classes, (\d+) edges, acyclic\)`).FindSubmatch(readme)
	if m == nil {
		t.Fatal(`README.md lacks "The current engine lock graph (N classes, M edges, acyclic)"`)
	}
	classes, _ := strconv.Atoi(string(m[1]))
	n, _ := strconv.Atoi(string(m[2]))
	if classes != countClasses(edges) || n != len(edges) {
		t.Errorf("README.md quotes %d classes and %d edges; the graph has %d and %d", classes, n, countClasses(edges), len(edges))
	}
}
