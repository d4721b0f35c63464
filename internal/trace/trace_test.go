package trace

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestOpTypeString(t *testing.T) {
	want := map[OpType]string{
		OpOpen: "open", OpClose: "close", OpStat: "stat",
		OpCreate: "create", OpDelete: "delete",
	}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), name)
		}
	}
	if !strings.Contains(OpType(99).String(), "99") {
		t.Error("unknown op string unhelpful")
	}
}

func TestProfileWeightsNormalized(t *testing.T) {
	for _, p := range Profiles() {
		var sum float64
		for _, w := range p.weights {
			if w < 0 {
				t.Errorf("%s: negative weight", p.Name)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: weights sum to %f", p.Name, sum)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"HP", "RES", "INS"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%s) = %v, %v", name, p.Name, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestScaledStatsTable3 verifies the generator's analytic scaling reproduces
// Table 3 of the paper: RES at TIF=100 and INS at TIF=30.
func TestScaledStatsTable3(t *testing.T) {
	res := RES().Scaled(100)
	if res.Hosts != 1300 || res.Users != 5000 {
		t.Errorf("RES hosts/users = %d/%d, want 1300/5000", res.Hosts, res.Users)
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 0.5 }
	if !approx(res.OpenM, 497.2) || !approx(res.CloseM, 558.2) || !approx(res.StatM, 7983.9) {
		t.Errorf("RES ops = %.1f/%.1f/%.1f, want 497.2/558.2/7983.9",
			res.OpenM, res.CloseM, res.StatM)
	}
	ins := INS().Scaled(30)
	if ins.Hosts != 570 || ins.Users != 9780 {
		t.Errorf("INS hosts/users = %d/%d, want 570/9780", ins.Hosts, ins.Users)
	}
	if !approx(ins.OpenM, 1196.37) || !approx(ins.CloseM, 1215.33) || !approx(ins.StatM, 4076.58) {
		t.Errorf("INS ops = %.2f/%.2f/%.2f, want 1196.37/1215.33/4076.58",
			ins.OpenM, ins.CloseM, ins.StatM)
	}
}

// TestScaledStatsTable4 verifies Table 4: the HP trace at TIF=40.
func TestScaledStatsTable4(t *testing.T) {
	hp := HP().Scaled(40)
	approx := func(got, want float64) bool { return math.Abs(got-want) < 0.5 }
	if !approx(hp.RequestsM, 3788) {
		t.Errorf("HP requests = %.0fM, want 3788M", hp.RequestsM)
	}
	if hp.ActiveUsers != 1280 || hp.UserAccounts != 8280 {
		t.Errorf("HP users = %d/%d, want 1280/8280", hp.ActiveUsers, hp.UserAccounts)
	}
	if !approx(hp.ActiveFilesM, 38.76) || !approx(hp.TotalFilesM, 160.0) {
		t.Errorf("HP files = %.2f/%.1f, want 38.76/160.0", hp.ActiveFilesM, hp.TotalFilesM)
	}
}

func TestScaledClampsTIF(t *testing.T) {
	s := HP().Scaled(0)
	if s.TIF != 1 || s.RequestsM != 94.7 {
		t.Errorf("Scaled(0) = TIF %d, %.1fM", s.TIF, s.RequestsM)
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{TIF: 1}); err == nil {
		t.Error("missing profile accepted")
	}
	if _, err := NewGenerator(Config{Profile: HP(), TIF: 0}); err == nil {
		t.Error("TIF 0 accepted")
	}
}

func TestGeneratorDefaults(t *testing.T) {
	g, err := NewGenerator(Config{Profile: HP(), TIF: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := g.Config()
	if cfg.FilesPerSubtrace != DefaultFilesPerSubtrace {
		t.Errorf("FilesPerSubtrace = %d", cfg.FilesPerSubtrace)
	}
	if cfg.MeanInterarrival != DefaultMeanInterarrival {
		t.Errorf("MeanInterarrival = %v", cfg.MeanInterarrival)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []Record {
		g, err := NewGenerator(Config{Profile: RES(), TIF: 3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return g.Take(500)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	g1, _ := NewGenerator(Config{Profile: RES(), TIF: 1, Seed: 1})
	g2, _ := NewGenerator(Config{Profile: RES(), TIF: 1, Seed: 2})
	same := 0
	a, b := g1.Take(200), g2.Take(200)
	for i := range a {
		if a[i].Path == b[i].Path && a[i].Op == b[i].Op {
			same++
		}
	}
	if same == 200 {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorMonotonicTimeAndSeq(t *testing.T) {
	g, _ := NewGenerator(Config{Profile: INS(), TIF: 2, Seed: 7})
	var prevAt time.Duration
	var prevSeq uint64
	for i := 0; i < 1000; i++ {
		r := g.Next()
		if r.At < prevAt {
			t.Fatalf("time went backwards at %d", i)
		}
		if r.Seq != prevSeq+1 {
			t.Fatalf("seq not consecutive at %d", i)
		}
		prevAt, prevSeq = r.At, r.Seq
	}
}

func TestGeneratorNamespacesDisjoint(t *testing.T) {
	g, _ := NewGenerator(Config{Profile: HP(), TIF: 4, Seed: 9, FilesPerSubtrace: 100})
	for _, r := range g.Take(2000) {
		if !strings.HasPrefix(r.Path, "/sub") {
			t.Fatalf("path %q lacks subtrace prefix", r.Path)
		}
		var sub int
		if _, err := fscan(r.Path, &sub); err != nil {
			t.Fatalf("unparseable path %q", r.Path)
		}
		if sub != r.Subtrace {
			t.Fatalf("path %q not in subtrace %d namespace", r.Path, r.Subtrace)
		}
	}
}

// fscan extracts the subtrace number from a /subN/... path.
func fscan(path string, sub *int) (int, error) {
	rest := strings.TrimPrefix(path, "/sub")
	idx := strings.IndexByte(rest, '/')
	if idx < 0 {
		return 0, errBadPath
	}
	n := 0
	for _, c := range rest[:idx] {
		if c < '0' || c > '9' {
			return 0, errBadPath
		}
		n = n*10 + int(c-'0')
	}
	*sub = n
	return 1, nil
}

var errBadPath = &badPathError{}

type badPathError struct{}

func (*badPathError) Error() string { return "bad path" }

func TestGeneratorHostUserDisjointAcrossSubtraces(t *testing.T) {
	g, _ := NewGenerator(Config{Profile: RES(), TIF: 3, Seed: 11})
	base := RES().Base
	for _, r := range g.Take(3000) {
		if r.Host/base.Hosts != r.Subtrace {
			t.Fatalf("host %d not in subtrace %d's range", r.Host, r.Subtrace)
		}
		if r.User/base.Users != r.Subtrace {
			t.Fatalf("user %d not in subtrace %d's range", r.User, r.Subtrace)
		}
	}
}

func TestGeneratorOpMixMatchesProfile(t *testing.T) {
	for _, p := range Profiles() {
		g, err := NewGenerator(Config{Profile: p, TIF: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ms := NewMeasuredStats()
		for i := 0; i < 50000; i++ {
			ms.Observe(g.Next())
		}
		w := p.weights
		for i, op := range []OpType{OpOpen, OpClose, OpStat, OpCreate, OpDelete} {
			got := ms.OpFraction(op)
			if math.Abs(got-w[i]) > 0.02 {
				t.Errorf("%s %s fraction = %.3f, want %.3f ± 0.02", p.Name, op, got, w[i])
			}
		}
	}
}

func TestGeneratorTemporalLocality(t *testing.T) {
	// With RepeatProb 0.7 the stream must revisit files far more often than
	// a uniform draw over 50k files would.
	g, _ := NewGenerator(Config{Profile: RES(), TIF: 1, Seed: 3})
	seen := make(map[string]int)
	repeats := 0
	const n = 20000
	for i := 0; i < n; i++ {
		r := g.Next()
		if seen[r.Path] > 0 {
			repeats++
		}
		seen[r.Path]++
	}
	if frac := float64(repeats) / n; frac < 0.5 {
		t.Errorf("repeat fraction %.2f, want ≥ 0.5 (locality broken)", frac)
	}
}

func TestGeneratorPopularitySkewed(t *testing.T) {
	g, _ := NewGenerator(Config{Profile: HP(), TIF: 1, Seed: 8})
	counts := make(map[string]int)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[g.Next().Path]++
	}
	// Top 10% of touched files should absorb well over half the accesses.
	var freqs []int
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := len(freqs) / 10
	if top == 0 {
		top = 1
	}
	topSum := 0
	for _, c := range freqs[:top] {
		topSum += c
	}
	if frac := float64(topSum) / n; frac < 0.5 {
		t.Errorf("top-decile access share %.2f, want ≥ 0.5 (skew broken)", frac)
	}
}

func TestPathForDeterministicAndUnique(t *testing.T) {
	if PathFor(1, 5) != PathFor(1, 5) {
		t.Error("PathFor not deterministic")
	}
	seen := make(map[string]bool)
	for f := uint64(0); f < 5000; f++ {
		p := PathFor(0, f)
		if seen[p] {
			t.Fatalf("duplicate path %q", p)
		}
		seen[p] = true
	}
	if PathFor(0, 1) == PathFor(1, 1) {
		t.Error("subtrace namespaces collide")
	}
}

func TestEachInitialPathCount(t *testing.T) {
	g, _ := NewGenerator(Config{Profile: HP(), TIF: 3, Seed: 1, FilesPerSubtrace: 250})
	count := uint64(0)
	g.EachInitialPath(func(string) bool {
		count++
		return true
	})
	if count != g.InitialFileCount() || count != 750 {
		t.Errorf("enumerated %d paths, want %d", count, g.InitialFileCount())
	}
}

func TestEachInitialPathEarlyStop(t *testing.T) {
	g, _ := NewGenerator(Config{Profile: HP(), TIF: 2, Seed: 1, FilesPerSubtrace: 100})
	count := 0
	g.EachInitialPath(func(string) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d, want 10", count)
	}
}
