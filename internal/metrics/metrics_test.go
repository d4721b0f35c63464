package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]time.Duration{5, 5}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if _, err := NewHistogram([]time.Duration{10, 5}); err == nil {
		t.Error("descending bounds accepted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram([]time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile non-zero")
	}
	// 100 samples at ~1.5ms (bucket (1ms, 2ms]).
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Microsecond)
	}
	q50 := h.Quantile(0.5)
	if q50 < time.Millisecond || q50 > 2*time.Millisecond {
		t.Errorf("q50 = %v, want within (1ms, 2ms]", q50)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := DefaultLatencyHistogram()
	h.Observe(3 * time.Millisecond)
	if h.Quantile(-1) != h.Quantile(0) {
		t.Error("q<0 not clamped")
	}
	if h.Quantile(2) != h.Quantile(1) {
		t.Error("q>1 not clamped")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h, err := NewHistogram([]time.Duration{time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(time.Hour) // overflow
	if got := h.Quantile(1); got != time.Millisecond {
		t.Errorf("overflow quantile = %v, want clamp to last bound", got)
	}
}

func TestHistogramOrderedQuantiles(t *testing.T) {
	h := DefaultLatencyHistogram()
	for _, d := range []time.Duration{
		5 * time.Microsecond, 50 * time.Microsecond, 500 * time.Microsecond,
		5 * time.Millisecond, 50 * time.Millisecond,
	} {
		for i := 0; i < 20; i++ {
			h.Observe(d)
		}
	}
	prev := time.Duration(-1)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantiles not monotone: q=%v → %v < %v", q, cur, prev)
		}
		prev = cur
	}
}

func TestLevelTally(t *testing.T) {
	var lt LevelTally
	for i := 0; i < 70; i++ {
		lt.Record(1)
	}
	for i := 0; i < 20; i++ {
		lt.Record(2)
	}
	for i := 0; i < 7; i++ {
		lt.Record(3)
	}
	for i := 0; i < 3; i++ {
		lt.Record(4)
	}
	lt.Record(0)  // ignored
	lt.Record(5)  // ignored
	lt.Record(-1) // ignored
	if lt.Total() != 100 {
		t.Fatalf("Total = %d, want 100", lt.Total())
	}
	if lt.Fraction(1) != 0.70 || lt.Fraction(4) != 0.03 {
		t.Errorf("fractions = %v, %v", lt.Fraction(1), lt.Fraction(4))
	}
	if lt.Count(3) != 7 || lt.Count(9) != 0 {
		t.Error("Count wrong")
	}
	if got := lt.Counts(); got != [5]uint64{0, 70, 20, 7, 3} {
		t.Errorf("Counts = %v, want [0 70 20 7 3]", got)
	}
}

func TestLevelTallyEmpty(t *testing.T) {
	var lt LevelTally
	if lt.Fraction(1) != 0 || lt.Fraction(4) != 0 {
		t.Error("empty tally fractions non-zero")
	}
}

func TestConcurrentObserveAndRecord(t *testing.T) {
	var lt LevelTally
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lt.Record(1 + (i+w)%4)
			}
		}(w)
	}
	wg.Wait()
	if lt.Total() != workers*perWorker {
		t.Errorf("concurrent tally = %d, want %d", lt.Total(), workers*perWorker)
	}
}
