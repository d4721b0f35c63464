package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ghba"
	"ghba/internal/trace"
)

// quickFig6 shrinks the default config for test speed.
func quickFig6(n int) Fig6Config {
	cfg := DefaultFig6Config(trace.HP(), n)
	cfg.Ms = []int{1, 3, 6, 10, 15}
	cfg.Ops = 3_000
	cfg.FilesPerSubtrace = 2_000
	return cfg
}

func TestFig6ProducesRowsAndPositiveGamma(t *testing.T) {
	rows, err := Fig6(quickFig6(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Gamma <= 0 || r.MeanLatency <= 0 {
			t.Errorf("M=%d: Γ=%f latency=%v", r.M, r.Gamma, r.MeanLatency)
		}
	}
	// The spill regime must make tiny groups lose: M=1 stores N−1 replicas
	// per MDS, far over budget.
	if rows[0].Gamma >= rows[2].Gamma {
		t.Errorf("Γ(M=1)=%f ≥ Γ(M=6)=%f: disk spill not penalizing small M",
			rows[0].Gamma, rows[2].Gamma)
	}
	out := FormatFig6("HP", 30, rows)
	if !strings.Contains(out, "Fig 6") {
		t.Error("format missing header")
	}
}

func TestFig6RejectsBadM(t *testing.T) {
	cfg := quickFig6(10)
	cfg.Ms = []int{0}
	if _, err := Fig6(cfg); err == nil {
		t.Error("M=0 accepted")
	}
	cfg.Ms = []int{11}
	if _, err := Fig6(cfg); err == nil {
		t.Error("M>N accepted")
	}
}

func TestFig7OptimalMGrowsWithN(t *testing.T) {
	cfg := DefaultFig7Config(trace.HP())
	cfg.Ns = []int{10, 60}
	cfg.Ms = []int{1, 2, 3, 5, 7, 9, 12}
	cfg.Ops = 2_500
	rows, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].OptimalM < rows[0].OptimalM {
		t.Errorf("optimal M shrank with N: %d@N=10 vs %d@N=60",
			rows[0].OptimalM, rows[1].OptimalM)
	}
	if !strings.Contains(FormatFig7("HP", rows), "Fig 7") {
		t.Error("format missing header")
	}
}

func quickLatencyFig(fig int) LatencyFigConfig {
	cfg := DefaultLatencyFigConfig(fig)
	cfg.N = 20
	cfg.M = 5
	cfg.Ops = 6_000
	cfg.Interval = 2_000
	cfg.FilesPerSubtrace = 2_000
	cfg.VirtualReplicaMB = 24 // 20 replicas × 24MB = 480MB HBA working set
	cfg.MemBudgetsMB = []uint64{1200, 160}
	return cfg
}

// TestLatencyFigShape verifies the headline result of Figs 8–10: with ample
// memory HBA is competitive, but when replicas spill, HBA's latency blows up
// while G-HBA stays flat.
func TestLatencyFigShape(t *testing.T) {
	cfg := quickLatencyFig(8)
	series, err := LatencyFig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 { // 2 budgets × 2 schemes
		t.Fatalf("series = %d", len(series))
	}
	byKey := make(map[string]LatencySeries)
	for _, s := range series {
		byKey[s.Scheme+"@"+itoa(s.MemBudgetMB)] = s
	}
	hbaBig := byKey["HBA@1200"].Final()
	hbaSmall := byKey["HBA@160"].Final()
	ghbaBig := byKey["G-HBA@1200"].Final()
	ghbaSmall := byKey["G-HBA@160"].Final()

	if hbaSmall < 4*hbaBig {
		t.Errorf("HBA under pressure (%v) not ≫ HBA with RAM (%v)", hbaSmall, hbaBig)
	}
	if hbaSmall < 4*ghbaSmall {
		t.Errorf("G-HBA (%v) does not beat HBA (%v) under memory pressure", ghbaSmall, hbaSmall)
	}
	// G-HBA must be insensitive to the budget (its θ replicas fit).
	ratio := float64(ghbaSmall) / float64(ghbaBig)
	if ratio > 3 || ratio < 0.33 {
		t.Errorf("G-HBA sensitive to memory: %v vs %v", ghbaSmall, ghbaBig)
	}
	out := FormatLatencyFig(cfg, series)
	if !strings.Contains(out, "Fig 8") {
		t.Error("format missing header")
	}
}

func itoa(v uint64) string {
	if v == 1200 {
		return "1200"
	}
	if v == 160 {
		return "160"
	}
	return "?"
}

func TestFig11MigrationOrdering(t *testing.T) {
	rows, err := Fig11([]int{10, 40, 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HBA != r.N {
			t.Errorf("N=%d: HBA migrated %d, want N", r.N, r.HBA)
		}
		if r.GHBA >= r.Hash || r.GHBA >= r.HBA {
			t.Errorf("N=%d: G-HBA (%d) not cheapest (hash %d, HBA %d)",
				r.N, r.GHBA, r.Hash, r.HBA)
		}
		if r.Hash > r.HBA {
			t.Errorf("N=%d: hash (%d) exceeds HBA (%d)", r.N, r.Hash, r.HBA)
		}
	}
	// G-HBA migrations stay small as N grows (the paper's key scaling win).
	if rows[2].GHBA > rows[2].N/4 {
		t.Errorf("G-HBA migrations %d at N=%d: not sublinear", rows[2].GHBA, rows[2].N)
	}
	if !strings.Contains(FormatFig11(rows), "Fig 11") {
		t.Error("format missing header")
	}
}

func TestFig12UpdateLatencyOrdering(t *testing.T) {
	cfg := DefaultFig12Config(30)
	cfg.Updates = 20
	cfg.FilesPerSubtrace = 1_000
	rows, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hbaLat, ghbaLat time.Duration
	for _, r := range rows {
		switch r.Scheme {
		case "HBA":
			hbaLat = r.MeanLatency
		case "G-HBA":
			ghbaLat = r.MeanLatency
		}
	}
	if ghbaLat >= hbaLat {
		t.Errorf("G-HBA update (%v) not faster than HBA (%v)", ghbaLat, hbaLat)
	}
	if !strings.Contains(FormatFig12(rows), "Fig 12") {
		t.Error("format missing header")
	}
}

func TestFig12LatencyGrowsWithN(t *testing.T) {
	small := DefaultFig12Config(10)
	small.Updates = 15
	small.FilesPerSubtrace = 500
	large := DefaultFig12Config(60)
	large.Updates = 15
	large.FilesPerSubtrace = 500
	rs, err := Fig12(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Fig12(large)
	if err != nil {
		t.Fatal(err)
	}
	// HBA's update cost grows with N (system-wide multicast).
	if rl[0].MeanLatency <= rs[0].MeanLatency {
		t.Errorf("HBA update at N=60 (%v) not slower than N=10 (%v)",
			rl[0].MeanLatency, rs[0].MeanLatency)
	}
}

func TestFig13HitRates(t *testing.T) {
	cfg := DefaultFig13Config()
	cfg.Ns = []int{10, 50, 100}
	cfg.Ops = 6_000
	cfg.FilesPerSubtrace = 2_000
	rows, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.L1 + r.L2 + r.L3 + r.L4
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("N=%d: level fractions sum to %f", r.N, sum)
		}
		// Paper: >80% served by L1+L2, >90% within the group (≤L3).
		if r.L1+r.L2 < 0.7 {
			t.Errorf("N=%d: L1+L2 = %.2f, want ≥ 0.7", r.N, r.L1+r.L2)
		}
		if r.L1+r.L2+r.L3 < 0.9 {
			t.Errorf("N=%d: within-group share = %.2f, want ≥ 0.9", r.N, r.L1+r.L2+r.L3)
		}
	}
	if !strings.Contains(FormatFig13(rows), "Fig 13") {
		t.Error("format missing header")
	}
}

func TestFig14PrototypeShape(t *testing.T) {
	cfg := DefaultFig14Config()
	cfg.N = 10
	cfg.M = 4
	cfg.Ops = 400
	cfg.Interval = 100
	cfg.Files = 1_000
	// 2 KiB holds five of this namespace's 408-byte filters.
	cfg.MemoryBudgetBytes = 2 << 10
	cfg.DiskPenalty = 1 * time.Millisecond
	series, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	var hbaFinal, ghbaFinal time.Duration
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: no checkpoints", s.Scheme)
		}
		switch s.Scheme {
		case "HBA":
			hbaFinal = s.Final()
		case "G-HBA":
			ghbaFinal = s.Final()
		}
	}
	// HBA's segment is 10 filters, half past the budget → every query pays
	// half the disk penalty; G-HBA's is at most 4 → none. The prototype
	// must show the gap.
	if ghbaFinal >= hbaFinal {
		t.Errorf("G-HBA (%v) not faster than overloaded HBA (%v)", ghbaFinal, hbaFinal)
	}
	if !strings.Contains(FormatFig14(cfg, series), "Fig 14") {
		t.Error("format missing header")
	}
}

func TestFig15MessageShape(t *testing.T) {
	rows, err := Fig15(12, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	prevHBA, prevGHBA := 0, 0
	for _, r := range rows {
		if r.HBAMsgs <= prevHBA || r.GHBAMsgs <= prevGHBA {
			t.Error("cumulative counts not increasing")
		}
		// N=12, M=4 starts full, so the first join is a split — in the plan's
		// message count as dear as an HBA join (2N+1: the two halves re-mirror
		// each other) — and every later join has room and costs a fraction.
		if r.GHBAMsgs > r.HBAMsgs || (r.NewNodes > 1 && r.GHBAMsgs == r.HBAMsgs) {
			t.Errorf("after %d adds: G-HBA %d msgs ≥ HBA %d", r.NewNodes, r.GHBAMsgs, r.HBAMsgs)
		}
		prevHBA, prevGHBA = r.HBAMsgs, r.GHBAMsgs
	}
	if !strings.Contains(FormatFig15(12, 4, rows), "Fig 15") {
		t.Error("format missing header")
	}
}

func TestTable5MeasuredClosesOnPaper(t *testing.T) {
	rows, err := Table5([]int{20, 60}, 2_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BFA16 < 1.9 || r.BFA16 > 2.1 {
			t.Errorf("N=%d: BFA16 = %.2f, want ≈2", r.N, r.BFA16)
		}
		// HBA ≈ 2× BFA8 here because the experiments use 16-bit filters
		// for HBA's array; what matters for the paper's point is G-HBA ≪
		// HBA and shrinking with N.
		if r.GHBA >= r.HBA {
			t.Errorf("N=%d: G-HBA (%.3f) not below HBA (%.3f)", r.N, r.GHBA, r.HBA)
		}
	}
	if rows[1].GHBA >= rows[0].GHBA {
		t.Errorf("G-HBA overhead did not shrink with N: %.3f → %.3f",
			rows[0].GHBA, rows[1].GHBA)
	}
	if !strings.Contains(FormatTable5(rows), "Table 5") {
		t.Error("format missing header")
	}
}

// refusingBackend is a backend whose bulk load fails.
type refusingBackend struct{ ghba.Backend }

func (refusingBackend) CreateAll(context.Context, []string) error { return errRefused }

var errRefused = errors.New("bulk load refused")

// TestPopulateNReturnsCreateAllError checks that Table 5's bulk load reports
// a failed CreateAll instead of measuring a half-populated cluster.
func TestPopulateNReturnsCreateAllError(t *testing.T) {
	if err := populateN(refusingBackend{}, 10); !errors.Is(err, errRefused) {
		t.Fatalf("populateN over a refusing backend: err = %v, want %v", err, errRefused)
	}
}

func TestTables34Output(t *testing.T) {
	out, err := Tables34(5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1300", "5000", "497.2", "1196.37", "3788", "8280", "160.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Tables 3/4 output missing %q", want)
		}
	}
}

func TestReplayCheckpoints(t *testing.T) {
	sys, gen := newTestSystem(t, trace.Config{Profile: trace.HP(), TIF: 1, FilesPerSubtrace: 500, Seed: 1})
	points, err := Replay(context.Background(), sys, gen, 1_000, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("checkpoints = %d, want 4", len(points))
	}
	for i, p := range points {
		if p.Ops != (i+1)*250 {
			t.Errorf("checkpoint %d at ops %d", i, p.Ops)
		}
		if p.MeanLatency <= 0 {
			t.Errorf("checkpoint %d mean %v", i, p.MeanLatency)
		}
	}
	// interval ≤ 0 falls back to a single final checkpoint.
	sys2, gen2 := newTestSystem(t, trace.Config{Profile: trace.HP(), TIF: 1, FilesPerSubtrace: 500, Seed: 2})
	if pts, err := Replay(context.Background(), sys2, gen2, 100, 0); err != nil || len(pts) != 1 {
		t.Errorf("fallback checkpoints = %d", len(pts))
	}
}

// newTestSystem builds a populated six-server G-HBA simulation (groups of
// three) over the trace, with the generator ready to replay.
func newTestSystem(t *testing.T, tc trace.Config) (ghba.Backend, *trace.Generator) {
	t.Helper()
	c, gen, err := simulate(tc, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ghba.SimulationOver(c, tc.Seed), gen
}
