package main_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ghba/internal/vet"
)

// The dispatch rule in main is load-bearing: everything but a leading
// -lockgraph must reach unitchecker (go vet's protocol), or `go vet
// -vettool=` breaks. These tests pin the routing by exercising the built
// binary the way go vet does.

var toolBinary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ghbavet-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	toolBinary = filepath.Join(dir, "ghbavet")
	if out, err := exec.Command("go", "build", "-o", toolBinary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ghbavet: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestVersionRoutesToUnitchecker checks that go vet's first probe, -V=full,
// reaches unitchecker's flag handling, which prints a version fingerprint
// and exits 0.
func TestVersionRoutesToUnitchecker(t *testing.T) {
	out, err := exec.Command(toolBinary, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatalf("-V=full failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "version") {
		t.Errorf("-V=full: want a version fingerprint, got:\n%s", out)
	}
}

// TestFlagsRoutesToUnitchecker checks the second probe of the vet protocol:
// -flags must yield unitchecker's JSON flag description.
func TestFlagsRoutesToUnitchecker(t *testing.T) {
	out, err := exec.Command(toolBinary, "-flags").CombinedOutput()
	if err != nil {
		t.Fatalf("-flags failed: %v\n%s", err, out)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(out)), "[") {
		t.Errorf("-flags: want JSON flag array, got:\n%s", out)
	}
}

// TestAnalyzersFireUnderGoVet is the negative control for the way CI invokes
// the suite. go vet hands a package that has in-package tests to the vet
// tool once, as its test variant, and the analyzers' own tests (vettest)
// load fixtures as plain packages — so a rule that skips test variants can
// pass every unit test and never run in CI. Here each analyzer's
// single-package fixture is laid into a throw-away stdlib-only module with
// an in-package _test.go beside it, and `go vet -vettool` over that module
// must produce a diagnostic from every analyzer.
func TestAnalyzersFireUnderGoVet(t *testing.T) {
	fixtures := map[string]string{ // analyzer → fixture under its testdata/src
		"detrand":   "core",
		"lockorder": "lockorder1",
		"snapcheck": "snapcheck1",
	}
	if len(fixtures) != len(vet.Analyzers) {
		t.Fatalf("%d fixtures for %d analyzers: give the new analyzer one here", len(fixtures), len(vet.Analyzers))
	}
	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module vetfixture\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for analyzer, fixture := range fixtures {
		src := filepath.Join("..", "..", "internal", "vet", analyzer, "testdata", "src", fixture)
		dst := filepath.Join(mod, analyzer)
		if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		// Every fixture's package is named after its directory.
		test := "package " + fixture + "\n\nimport \"testing\"\n\nfunc TestNothing(t *testing.T) {}\n"
		if err := os.WriteFile(filepath.Join(dst, "fixture_test.go"), []byte(test), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command("go", "vet", "-json", "-vettool="+toolBinary, "./...")
	cmd.Dir = mod
	// The module needs nothing but the standard library; make sure it cannot
	// reach for the repo's vendor tree, a workspace or the network.
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off", "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -json: %v\n%s", err, out)
	}

	// -json prints, per package, a "# pkg" banner and one object
	// {package: {analyzer: [diagnostics]}}.
	var objects strings.Builder
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "#") {
			objects.WriteString(line + "\n")
		}
	}
	fired := make(map[string]bool)
	dec := json.NewDecoder(strings.NewReader(objects.String()))
	for dec.More() {
		var byPkg map[string]map[string]json.RawMessage
		if err := dec.Decode(&byPkg); err != nil {
			t.Fatalf("decoding go vet -json output: %v\n%s", err, out)
		}
		for _, byAnalyzer := range byPkg {
			for analyzer, diags := range byAnalyzer {
				var list []json.RawMessage // an analyzer error is an object, not a list
				if json.Unmarshal(diags, &list) == nil && len(list) > 0 {
					fired[analyzer] = true
				}
			}
		}
	}
	for _, a := range vet.Analyzers {
		if !fired[a.Name] {
			t.Errorf("%s reported nothing on its own fixture when run the way CI runs it", a.Name)
		}
	}
	if t.Failed() {
		t.Logf("go vet output:\n%s", out)
	}
}

// TestAnalyzersFireOnRealTree answers whether lockorder and snapcheck would
// notice their bug classes — a lock-order inversion, a *Locked call without
// the lock, an in-place edit of a published snapshot — in the engine itself
// rather than in a fixture. It copies the module (vendor/ included) aside,
// runs `go vet -vettool` on one package to show it is clean, plants one
// textual mutation, and requires the analyzer's diagnostic on the mutated
// line.
func TestAnalyzersFireOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("copies the module and vets it six times")
	}
	mod := t.TempDir()
	root := filepath.Join("..", "..")
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), gomod, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"vendor", "internal"} {
		if err := os.CopyFS(filepath.Join(mod, dir), os.DirFS(filepath.Join(root, dir))); err != nil {
			t.Fatal(err)
		}
	}
	vetPackage := func(pkg string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+toolBinary, pkg)
		cmd.Dir = mod
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=vendor", "GOWORK=off", "GOPROXY=off")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	for _, tc := range []struct {
		name, analyzer, pkg, file string
		old, mutant               string
		want                      []string
	}{
		{
			// A writer that edits the published slice in place instead of
			// copying it: readers of the old snapshot see the new filter.
			name: "snapcheck", analyzer: "snapcheck", pkg: "./internal/bloomarray", file: "internal/bloomarray/array.go",
			old:    "\t\tout := make([]entry, len(entries))\n\t\tcopy(out, entries)\n\t\tout[i].f = f\n\t\treturn out\n",
			mutant: "\t\tentries[i].f = f\n\t\treturn entries\n",
			want:   []string{"array.go:", "published snapshot", "copy-on-write"},
		},
		{
			// FileCount takes Cluster.mu; under queueMu that inverts the
			// order every reconfiguration takes the two in.
			name: "lockorder", analyzer: "lockorder", pkg: "./internal/core", file: "internal/core/lookup.go",
			old:    "\tdefer c.queueMu.Unlock()\n\tclear(c.queue)\n",
			mutant: "\tdefer c.queueMu.Unlock()\n\t_ = c.FileCount()\n\tclear(c.queue)\n",
			want:   []string{"lookup.go:", "Cluster.mu", "Cluster.queueMu", "cycle"},
		},
		{
			// Flush without the topology lock: shipBatchLocked walks the
			// layout while a reconfiguration may be rewriting it.
			name: "lockorder_locked", analyzer: "lockorder", pkg: "./internal/core", file: "internal/core/mutate.go",
			old:    "func (c *Cluster) Flush() {\n\tc.mu.RLock()\n\tdefer c.mu.RUnlock()\n",
			mutant: "func (c *Cluster) Flush() {\n",
			want:   []string{"mutate.go:", "shipBatchLocked", "c.mu"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if out, err := vetPackage(tc.pkg); err != nil {
				t.Fatalf("%s is not clean before the mutation: %v\n%s", tc.pkg, err, out)
			}
			path := filepath.Join(mod, tc.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(string(src), tc.old) != 1 {
				t.Fatalf("%s no longer contains the text this mutation replaces; re-aim it", tc.file)
			}
			mutated := strings.Replace(string(src), tc.old, tc.mutant, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			// The next case vets the same copy.
			t.Cleanup(func() { os.WriteFile(path, src, 0o644) })
			out, err := vetPackage(tc.pkg)
			if err == nil {
				t.Fatalf("%s passed the mutant:\n%s", tc.analyzer, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("%s output lacks %q:\n%s", tc.analyzer, want, out)
				}
			}
		})
	}
}
