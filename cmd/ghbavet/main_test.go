package main_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
