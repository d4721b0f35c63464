package ghba

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"ghba/internal/trace"
)

// Lane is one op source for Drive: Len ops, the i-th of which is Op(i).
// Drive calls Op once per i, in increasing order, from the lane's own
// goroutine, so a source may be a stateful generator that ignores i.
type Lane struct {
	Len int
	Op  func(i int) Op
}

// Shape is how Drive dispatches a lane's ops.
type Shape struct {
	// Lookup sends each op's path through LookupWith, whatever its kind.
	Lookup bool
	// Vector > 1 sends ops through ApplyBatch in vectors of that many when
	// the backend is a BatchApplier. Otherwise, and when Lookup is false,
	// each op goes through ApplyWith.
	Vector int
}

// Observer sees every dispatch call Drive makes: the lane, the index within
// the lane of ops[0], the ops, their results (nil on error) and the call's
// error. A non-nil return stops that lane; the other lanes run on.
type Observer func(lane, at int, ops []Op, results []Result, err error) error

// Drive runs each lane on its own goroutine against b and returns once all
// have finished. Lane w draws entries and homes from an RNG seeded
// trace.DispatchSeed(seed, w), so lane 0 alone is the serial engine and a
// run is deterministic for a fixed (seed, lanes) pair up to the
// interleaving of lanes on shared cluster state. The errors the observer
// returns are joined, each naming its lane, op index and path.
func Drive(ctx context.Context, b Backend, seed int64, lanes []Lane, shape Shape, observe Observer) error {
	bs, vector := b.(BatchApplier)
	k := shape.Vector
	if !vector || shape.Lookup || k <= 1 {
		vector, k = false, 1
	}
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for w, lane := range lanes {
		if lane.Len <= 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(trace.DispatchSeed(seed, w)))
			ops := make([]Op, 0, k)
			var one [1]Result
			for at := 0; at < lane.Len; at += len(ops) {
				ops = ops[:0]
				for len(ops) < k && at+len(ops) < lane.Len {
					ops = append(ops, lane.Op(at+len(ops)))
				}
				results := one[:]
				var err error
				switch {
				case vector:
					results, err = bs.ApplyBatch(ctx, rng, ops)
				case shape.Lookup:
					one[0], err = b.LookupWith(ctx, rng, ops[0].Path)
				default:
					one[0], err = b.ApplyWith(ctx, rng, ops[0])
				}
				if err != nil {
					results = nil
				}
				if err := observe(w, at, ops, results, err); err != nil {
					errs[w] = fmt.Errorf("lane %d, %d op(s) from op %d (%q): %w", w, len(ops), at, ops[0].Path, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
