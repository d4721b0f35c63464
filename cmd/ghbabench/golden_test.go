package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFiguresMatchGolden renders, at the default seed, the four outputs with
// a baseline column (Table 5's BFA8/BFA16/HBA, Fig 11's HBA and hash, Fig
// 12's and Fig 15's HBA), Tables 3/4's measured op mix and the simulator's
// sweeps (Figs 6–10 and 13), and compares each with the committed text. The
// first five files were written by the commit before the stand-alone
// baseline packages were replaced by arithmetic and before the trace
// statistics lost the counters nothing prints; the sweeps were written before
// the replica-location filters gave way to the group layout. A change that
// moves a byte here changed what the paper's comparison says. CI diffs the
// same files. Rewrite one with: go run ./cmd/ghbabench <flags> > testdata/<name>.
func TestFiguresMatchGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ghbabench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ghbabench: %v\n%s", err, out)
	}
	for _, what := range []string{
		"-table 5", "-fig 11", "-fig 12", "-fig 15", "-table 3",
		"-fig 6", "-fig 7", "-fig 8", "-fig 9", "-fig 10", "-fig 13",
	} {
		name := strings.ReplaceAll(strings.TrimPrefix(what, "-"), " ", "_") + ".golden"
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(bin, strings.Fields(what)...).Output()
			if err != nil {
				t.Fatalf("ghbabench %s: %v", what, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("ghbabench %s differs from testdata/%s\n--- got\n%s--- want\n%s", what, name, got, want)
			}
		})
	}
}
