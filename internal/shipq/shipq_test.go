package shipq

import (
	"slices"
	"sync"
	"testing"
)

// TestImmediateBatchHandsBackEveryCrossing pins the paper's protocol: with a
// batch of 1 (or anything below it) a crossing is handed back at once.
func TestImmediateBatchHandsBackEveryCrossing(t *testing.T) {
	for _, batch := range []int{-3, 0, 1} {
		q := New(batch)
		for _, origin := range []int{7, 7, 2, 9} {
			if got := q.Note(origin); !slices.Equal(got, []int{origin}) {
				t.Errorf("batch %d: Note(%d) = %v, want [%d]", batch, origin, got, origin)
			}
			if q.PendingCount() != 0 {
				t.Errorf("batch %d: %d pending after an immediate hand-back", batch, q.PendingCount())
			}
		}
	}
}

// TestQueue walks the coalescing behaviour step by step: each step is one
// call and what it must return, plus the pending count it must leave.
func TestQueue(t *testing.T) {
	type step struct {
		op      string // note, drain, forget
		origin  int
		want    []int
		pending int
	}
	for _, tc := range []struct {
		name  string
		batch int
		steps []step
	}{
		{"crossings of one origin coalesce to one entry", 8, []step{
			{"note", 5, nil, 1}, {"note", 5, nil, 1}, {"note", 5, nil, 1},
			{"drain", 0, []int{5}, 0},
			{"drain", 0, nil, 0},
		}},
		{"the batch-th crossing drains, ascending", 4, []step{
			{"note", 9, nil, 1}, {"note", 3, nil, 2}, {"note", 9, nil, 2},
			{"note", 1, []int{1, 3, 9}, 0},
			{"note", 4, nil, 1},
		}},
		{"explicit drain is ascending whatever the arrival order", 100, []step{
			{"note", 30, nil, 1}, {"note", 2, nil, 2}, {"note", 17, nil, 3}, {"note", 11, nil, 4},
			{"drain", 0, []int{2, 11, 17, 30}, 0},
		}},
		{"forget drops a pending origin and only that one", 100, []step{
			{"note", 6, nil, 1}, {"note", 8, nil, 2},
			{"forget", 6, nil, 1},
			{"forget", 99, nil, 1},
			{"drain", 0, []int{8}, 0},
		}},
		{"drain resets the crossing count", 3, []step{
			{"note", 1, nil, 1}, {"note", 2, nil, 2},
			{"drain", 0, []int{1, 2}, 0},
			// Two crossings were absorbed before the drain; were they still
			// counted, this first Note would be the third and hand back.
			{"note", 3, nil, 1}, {"note", 4, nil, 2},
			{"note", 5, []int{3, 4, 5}, 0},
		}},
		{"a drain that empties nothing still resets the count", 2, []step{
			{"note", 1, nil, 1},
			{"forget", 1, nil, 0},
			{"drain", 0, nil, 0},
			{"note", 2, nil, 1},
			{"note", 2, []int{2}, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New(tc.batch)
			for i, s := range tc.steps {
				var got []int
				switch s.op {
				case "note":
					got = q.Note(s.origin)
				case "drain":
					got = q.Drain()
				case "forget":
					q.Forget(s.origin)
				}
				if !slices.Equal(got, s.want) {
					t.Fatalf("step %d (%s %d): got %v, want %v", i, s.op, s.origin, got, s.want)
				}
				if q.PendingCount() != s.pending {
					t.Fatalf("step %d (%s %d): %d pending, want %d", i, s.op, s.origin, q.PendingCount(), s.pending)
				}
			}
		})
	}
}

// TestConcurrentNoteDrain is the -race contract both engines lean on: with
// many goroutines noting crossings while another drains, every noted origin
// is handed back, and no hand-back names an origin twice.
func TestConcurrentNoteDrain(t *testing.T) {
	const noters, origins, rounds = 4, 64, 200
	q := New(16)

	var mu sync.Mutex
	handed := make(map[int]int)
	collect := func(batch []int) {
		if !slices.IsSorted(batch) {
			t.Errorf("hand-back not ascending: %v", batch)
		}
		mu.Lock()
		defer mu.Unlock()
		for i, o := range batch {
			if i > 0 && batch[i-1] == o {
				t.Errorf("origin %d twice in one hand-back: %v", o, batch)
			}
			handed[o]++
		}
	}

	stop := make(chan struct{})
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				collect(q.Drain())
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < noters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for o := w; o < origins; o += noters {
					collect(q.Note(o))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	drainer.Wait()
	collect(q.Drain())

	if q.PendingCount() != 0 {
		t.Errorf("%d origins still pending after the final drain", q.PendingCount())
	}
	for o := 0; o < origins; o++ {
		if handed[o] == 0 {
			t.Errorf("origin %d was noted but never handed back", o)
		}
	}
	if len(handed) != origins {
		t.Errorf("handed back %d distinct origins, noted %d", len(handed), origins)
	}
}
