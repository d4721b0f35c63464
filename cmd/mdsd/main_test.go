package main_test

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The tests drive the built binary the way an operator does: start it on a
// data directory, stop it with SIGTERM, start it again, and check the exit
// status and what it prints on the way.

var daemonBinary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mdsd-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBinary = filepath.Join(dir, "mdsd")
	if out, err := exec.Command("go", "build", "-o", daemonBinary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building mdsd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemon is one running mdsd whose stdout and stderr arrive line by line.
type daemon struct {
	cmd   *exec.Cmd
	lines chan string
	out   strings.Builder
}

// startDaemon launches mdsd on an ephemeral loopback port and returns once
// it prints its "serving" line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		cmd:   exec.Command(daemonBinary, append([]string{"-listen", "127.0.0.1:0", "-files", "100"}, args...)...),
		lines: make(chan string, 16),
	}
	d.cmd.Stdout, d.cmd.Stderr = w, w
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	go func() {
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		close(d.lines)
	}()
	t.Cleanup(func() { d.cmd.Process.Kill() })
	timeout := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-d.lines:
			if !ok {
				d.cmd.Wait()
				t.Fatalf("mdsd exited before serving:\n%s", d.out.String())
			}
			d.out.WriteString(line + "\n")
			if strings.Contains(line, "serving") {
				return d
			}
		case <-timeout:
			t.Fatalf("mdsd did not serve within 10s:\n%s", d.out.String())
		}
	}
}

// stop sends SIGTERM and returns the exit status and everything printed.
func (d *daemon) stop(t *testing.T) (int, string) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range d.lines {
		d.out.WriteString(line + "\n")
	}
	err := d.cmd.Wait()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), d.out.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, d.out.String()
}

// runToExit runs mdsd expecting it to exit on its own, bounded at 10s.
func runToExit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, daemonBinary, append([]string{"-listen", "127.0.0.1:0", "-files", "100"}, args...)...).CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("mdsd did not exit within 10s:\n%s", out)
	}
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), string(out)
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// TestStopSnapshotsAndRestartRecovers pins the durable lifecycle: SIGTERM
// drains, leaves a snapshot and exits 0; the next start on the same
// directory recovers from that snapshot.
func TestStopSnapshotsAndRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	code, out := startDaemon(t, "-data", dir).stop(t)
	if code != 0 || !strings.Contains(out, "mdsd: stopped") {
		t.Fatalf("SIGTERM: exit %d, want 0 and \"mdsd: stopped\":\n%s", code, out)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot left in %s after a clean stop (err %v)", dir, err)
	}

	d := startDaemon(t, "-data", dir)
	if out := d.out.String(); !strings.Contains(out, "recovered") || strings.Contains(out, "snapshot seq 0,") {
		t.Errorf("second start did not recover from the snapshot:\n%s", out)
	}
	if code, out := d.stop(t); code != 0 {
		t.Errorf("second SIGTERM: exit %d:\n%s", code, out)
	}
}

// TestRefusesCorruptSnapshot pins that a damaged directory is a refusal to
// start (exit 1), never a daemon serving incomplete metadata.
func TestRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runToExit(t, "-data", dir)
	if code != 1 || strings.Contains(out, "serving") {
		t.Errorf("corrupt snapshot: exit %d, want 1 and no \"serving\":\n%s", code, out)
	}
}

// TestRejectsBadWALSync pins exit status 2 for an unknown fsync policy,
// with or without -data: a typo is refused, not ignored.
func TestRejectsBadWALSync(t *testing.T) {
	for _, args := range [][]string{
		{"-wal-sync", "bogus"},
		{"-wal-sync", "bogus", "-data", t.TempDir()},
	} {
		code, out := runToExit(t, args...)
		if code != 2 || strings.Contains(out, "serving") {
			t.Errorf("%v: exit %d, want 2 and no \"serving\":\n%s", args, code, out)
		}
	}
}

// TestRefusesIDBeyondUint32 pins exit status 1 for an MDS ID that snapshots
// and heartbeats cannot carry, with or without -data: such a daemon would
// write a snapshot its own restart refuses, so it never serves.
func TestRefusesIDBeyondUint32(t *testing.T) {
	for _, args := range [][]string{
		{"-id", "-1"},
		{"-id", "-1", "-data", t.TempDir()},
		{"-id", "4294967296", "-data", t.TempDir()},
	} {
		code, out := runToExit(t, args...)
		if code != 1 || strings.Contains(out, "serving") {
			t.Errorf("%v: exit %d, want 1 and no \"serving\":\n%s", args, code, out)
		}
	}
}
