package metrics

import (
	"sync"
	"testing"
)

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

// TestLevelTallyStripesSum pins the striped reads: records on stripes beyond
// the stripe count (which wrap) and on stripe 0 through Record sum exactly.
func TestLevelTallyStripesSum(t *testing.T) {
	var lt LevelTally
	var wg sync.WaitGroup
	const writers, per = 3 * tallyStripes, 400
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lt.RecordAt(w, 1+i%4)
			}
			lt.RecordAt(w, 5) // ignored
		}()
	}
	lt.Record(2)
	wg.Wait()
	want := [5]uint64{0, writers * per / 4, writers*per/4 + 1, writers * per / 4, writers * per / 4}
	if got := lt.Counts(); got != want {
		t.Errorf("Counts = %v, want %v", got, want)
	}
	if got := lt.Total(); got != writers*per+1 {
		t.Errorf("Total = %d, want %d", got, writers*per+1)
	}
}
