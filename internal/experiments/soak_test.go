package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestSoakKillRestart is the acceptance soak: a durable TCP cluster under a
// mixed workload survives kill -9s mid-replay, every reconfiguration is
// triggered by the heartbeat detector (the harness never calls FailMDS),
// the victims recover from their WALs and rejoin, and the fixed-seed
// verification sweep finds zero wrong-home or lost-file answers. Sized to
// stay -race-friendly on a small CI runner.
func TestSoakKillRestart(t *testing.T) {
	res, err := Soak(SoakConfig{
		N:                5,
		M:                2,
		Files:            400,
		Ops:              2_000,
		Workers:          4,
		Kills:            2,
		DataDir:          t.TempDir(),
		DetectorInterval: 15 * time.Millisecond,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	report := FormatSoak(res)
	t.Log("\n" + report)
	if !res.Clean() {
		t.Fatalf("soak invariants broken:\n%s", report)
	}
	if res.Failovers != uint64(res.Kills) {
		t.Fatalf("detector ran %d failovers for %d kills", res.Failovers, res.Kills)
	}
	for _, rep := range res.Restarts {
		if !rep.Rejoined {
			t.Errorf("MDS %d restarted in place; a failed-over victim must rejoin", rep.ID)
		}
		if rep.Recovery.Files == 0 && rep.FilesReclaimed > 0 {
			t.Errorf("MDS %d reclaimed %d files from an empty recovery", rep.ID, rep.FilesReclaimed)
		}
	}
	if res.Sweep.Paths < res.Config.Files {
		t.Errorf("sweep covered %d paths, want at least the %d initial", res.Sweep.Paths, res.Config.Files)
	}
	if !strings.Contains(report, "CLEAN") {
		t.Errorf("report missing verdict:\n%s", report)
	}
}

// TestSoakRequiresDurability pins the guard rails: no DataDir and no
// survivors are harness errors, not half-runs.
func TestSoakRequiresDurability(t *testing.T) {
	if _, err := Soak(SoakConfig{N: 4}); err == nil {
		t.Fatal("soak without DataDir did not error")
	}
	if _, err := Soak(SoakConfig{N: 1, DataDir: t.TempDir()}); err == nil {
		t.Fatal("soak without survivors did not error")
	}
}
