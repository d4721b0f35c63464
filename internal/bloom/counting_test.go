package bloom

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func mustNewCounting(t *testing.T, m uint64, k uint32) *CountingFilter {
	t.Helper()
	c, err := NewCounting(m, k)
	if err != nil {
		t.Fatalf("NewCounting(%d, %d): %v", m, k, err)
	}
	return c
}

func TestCountingRejectsInvalidGeometry(t *testing.T) {
	if _, err := NewCounting(0, 3); err == nil {
		t.Error("NewCounting(0,3) succeeded")
	}
	if _, err := NewCounting(64, 0); err == nil {
		t.Error("NewCounting(64,0) succeeded")
	}
}

func TestCountingAddRemoveContains(t *testing.T) {
	c := mustNewCounting(t, 4096, 5)
	c.AddString("alpha")
	c.AddString("beta")
	if !c.ContainsString("alpha") || !c.ContainsString("beta") {
		t.Fatal("missing inserted keys")
	}
	c.Remove([]byte("alpha"))
	if c.ContainsString("alpha") && c.Count() != 1 {
		// alpha may still test positive via beta's bits; only the count is exact
		t.Logf("alpha still positive after remove (allowed false positive)")
	}
	if !c.ContainsString("beta") {
		t.Error("remove of alpha broke membership of beta")
	}
	if c.Count() != 1 {
		t.Errorf("Count = %d, want 1", c.Count())
	}
}

func TestCountingDeleteRestoresPriorAnswers(t *testing.T) {
	// Property: for disjoint bit positions, removing an added key restores
	// the filter's answers for every other key. We verify the weaker exact
	// invariant: counters return to their prior values.
	c := mustNewCounting(t, 1<<12, 5)
	for i := 0; i < 100; i++ {
		c.AddString("stable" + strconv.Itoa(i))
	}
	before := slices.Clone(c.counters)
	for i := 0; i < 50; i++ {
		c.AddString("transient" + strconv.Itoa(i))
	}
	for i := 0; i < 50; i++ {
		c.Remove([]byte("transient" + strconv.Itoa(i)))
	}
	for i, v := range c.counters {
		if v != before[i] {
			t.Fatalf("counter %d = %d, want %d after add/remove cycle", i, v, before[i])
		}
	}
}

func TestCountingAddRemoveProperty(t *testing.T) {
	err := quick.Check(func(keys []string) bool {
		c, err := NewCounting(1<<12, 5)
		if err != nil {
			return false
		}
		for _, k := range keys {
			c.AddString(k)
		}
		for _, k := range keys {
			if !c.ContainsString(k) {
				return false // no false negatives while present
			}
		}
		for _, k := range keys {
			c.Remove([]byte(k))
		}
		return c.Count() == 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Errorf("add/remove property violated: %v", err)
	}
}

func TestCountingRemoveNeverUnderflows(t *testing.T) {
	c := mustNewCounting(t, 256, 3)
	c.Remove([]byte("ghost")) // never added
	for i, v := range c.counters {
		if v != 0 {
			t.Fatalf("counter %d = %d after removing non-member", i, v)
		}
	}
	if c.Count() != 0 {
		t.Errorf("Count = %d, want 0", c.Count())
	}
}

func TestCountingSaturation(t *testing.T) {
	c := mustNewCounting(t, 8, 1)
	// Hammer a single key until its counter saturates.
	for i := 0; i < 300; i++ {
		c.AddString("x")
	}
	if !c.ContainsString("x") {
		t.Fatal("saturated key not contained")
	}
	// Saturated counters must never decrement (safety over accuracy).
	for i := 0; i < 300; i++ {
		c.Remove([]byte("x"))
	}
	if !c.ContainsString("x") {
		t.Error("saturated counter was decremented to zero")
	}
}

func TestCountingSizeBytes(t *testing.T) {
	c := mustNewCounting(t, 1000, 4)
	if c.SizeBytes() != 1000 {
		t.Errorf("SizeBytes = %d, want 1000", c.SizeBytes())
	}
}
