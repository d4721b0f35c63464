package main_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests drive the built binary the way a shell does: flag validation
// must reject a bad value with exit status 2 before anything is sized from
// it, and a run on either backend must end in a clean ground-truth sweep.

var toolBinary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ghbactl-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolBinary = filepath.Join(dir, "ghbactl")
	if out, err := exec.Command("go", "build", "-o", toolBinary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ghbactl: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRejectsBadFlags pins exit status 2 and the absence of a panic for
// every value the CLI must refuse; -n 0 and -ops 0 used to divide by zero.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "invalid config: NumMDS"},
		{[]string{"-backend", "sim", "-n", "0"}, "invalid config: NumMDS"},
		{[]string{"-ops", "0"}, "invalid config: -ops"},
		{[]string{"-mix", "bogus"}, "invalid config: -mix"},
		{[]string{"-mix", "0:0:0"}, "empty mix"},
		{[]string{"-backend", "bogus"}, "invalid config: -backend"},
		{[]string{"-files", "1"}, "invalid config: -files"},
		{[]string{"-rpcbatch", "0"}, "invalid config: -rpcbatch"},
		// -mem-mb is the simulator's spill model; TCP spills by -resident.
		{[]string{"-backend", "tcp", "-mem-mb", "8"}, "invalid config: MemoryBudgetBytes"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			out, err := exec.Command(toolBinary, tc.args...).CombinedOutput()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 2 {
				t.Fatalf("want exit status 2, got err=%v\n%s", err, out)
			}
			if strings.Contains(string(out), "panic") || !strings.Contains(string(out), tc.want) {
				t.Errorf("want a diagnostic containing %q, got:\n%s", tc.want, out)
			}
		})
	}
}

// TestRunsOnBothBackends replays 200 ops through each backend: the same code
// path after construction, ending in a sweep that finds every file.
func TestRunsOnBothBackends(t *testing.T) {
	for _, backend := range []string{"sim", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			if backend == "tcp" && testing.Short() {
				t.Skip("loopback TCP daemons are not short")
			}
			out, err := exec.Command(toolBinary, "-backend", backend, "-n", "6", "-m", "3",
				"-files", "400", "-ops", "200", "-workers", "2", "-rpcbatch", "16", "-add", "1").CombinedOutput()
			if err != nil {
				t.Fatalf("run failed: %v\n%s", err, out)
			}
			for _, want := range []string{backend + " backend", "0 lost, 0 wrong-home", "added MDS 6"} {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}
