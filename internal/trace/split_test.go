package trace

import (
	"reflect"
	"strings"
	"testing"
)

func splitTestConfig() Config {
	return Config{
		Profile:          MustMixProfile(50, 35, 15),
		TIF:              2,
		FilesPerSubtrace: 1_000,
		Seed:             7,
	}
}

// TestSplitOneLaneMatchesSerial pins the splittable generator's base
// contract: a 1-way split is bit-for-bit the serial generator.
func TestSplitOneLaneMatchesSerial(t *testing.T) {
	cfg := splitTestConfig()
	serial, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := SplitGenerators(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Take(2_000), lanes[0].Take(2_000)
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("record %d diverged: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

// TestSplitLanesCreateDisjointPaths verifies the strided allocation: no two
// lanes of a split ever mint the same fresh path, so parallel replays never
// collide on a create.
func TestSplitLanesCreateDisjointPaths(t *testing.T) {
	cfg := splitTestConfig()
	const n = 4
	lanes, err := SplitGenerators(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for w, lane := range lanes {
		for i := 0; i < 3_000; i++ {
			rec := lane.Next()
			if rec.Op != OpCreate {
				continue
			}
			if prev, dup := seen[rec.Path]; dup {
				t.Fatalf("lanes %d and %d both created %s", prev, w, rec.Path)
			}
			seen[rec.Path] = w
		}
	}
	if len(seen) == 0 {
		t.Fatal("no creates generated")
	}
}

// TestSplitLanesAreDeterministic checks that rebuilding the same split
// reproduces every lane exactly, and that distinct lanes draw distinct
// streams.
func TestSplitLanesAreDeterministic(t *testing.T) {
	cfg := splitTestConfig()
	a, err := SplitGenerators(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SplitGenerators(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for w := range a {
		ra, rb := a[w].Take(500), b[w].Take(500)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("lane %d not reproducible", w)
		}
	}
	if reflect.DeepEqual(a[0].Take(100), a[1].Take(100)) {
		t.Error("lanes 0 and 1 drew identical streams")
	}
}

// TestSplitRejectsBadCount covers the error path.
func TestSplitRejectsBadCount(t *testing.T) {
	if _, err := SplitGenerators(splitTestConfig(), 0); err == nil {
		t.Error("0-way split accepted")
	}
}

// TestMixProfileWeights checks the normalized mix and its validation.
func TestMixProfileWeights(t *testing.T) {
	p, err := MixProfile(70, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	w := p.weights
	if w[2] != 0.7 || w[3] != 0.2 || w[4] != 0.1 {
		t.Errorf("weights = %v", w)
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %f", sum)
	}
	if _, err := MixProfile(0, 0, 0); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := MixProfile(-1, 1, 1); err == nil {
		t.Error("negative mix accepted")
	}
	if !strings.Contains(p.Name, "MIX") {
		t.Errorf("profile name %q", p.Name)
	}
}
