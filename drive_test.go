package ghba_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ghba"
	"ghba/internal/experiments"
	"ghba/internal/trace"
)

var errFake = errors.New("fake backend failure")

// fakeBackend records every op Drive dispatches to it: per RNG, the path and
// one draw from that RNG, the way a real backend draws an entry server. Ops
// on the path fail return errFake. Methods Drive never calls panic through
// the nil embedded Backend.
type fakeBackend struct {
	ghba.Backend
	seed  int64
	fail  string
	mu    sync.Mutex
	calls map[*rand.Rand][]string
	draws map[*rand.Rand][]int
}

func (f *fakeBackend) do(rng *rand.Rand, path string) (ghba.Result, error) {
	d := rng.Intn(1000)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.calls == nil {
		f.calls, f.draws = map[*rand.Rand][]string{}, map[*rand.Rand][]int{}
	}
	f.calls[rng] = append(f.calls[rng], path)
	f.draws[rng] = append(f.draws[rng], d)
	if path == f.fail {
		return ghba.Result{}, errFake
	}
	return ghba.Result{Home: d}, nil
}

func (f *fakeBackend) Seed() int64 { return f.seed }

func (f *fakeBackend) LookupWith(_ context.Context, rng *rand.Rand, path string) (ghba.Result, error) {
	return f.do(rng, path)
}

func (f *fakeBackend) ApplyWith(_ context.Context, rng *rand.Rand, op ghba.Op) (ghba.Result, error) {
	return f.do(rng, op.Path)
}

func (f *fakeBackend) Flush(context.Context) error { return nil }

// lanes renders each RNG's stream as "paths | first three draws", sorted so
// the order does not depend on which lane ran first.
func (f *fakeBackend) lanes() []string {
	var out []string
	for rng, paths := range f.calls {
		d := f.draws[rng]
		out = append(out, fmt.Sprintf("%s | %v", strings.Join(paths, " "), d[:min(3, len(d))]))
	}
	sort.Strings(out)
	return out
}

// dispatched returns every path the backend saw, sorted.
func (f *fakeBackend) dispatched() []string {
	var out []string
	for _, paths := range f.calls {
		out = append(out, paths...)
	}
	sort.Strings(out)
	return out
}

// batchFake is fakeBackend with the batch half of the contract: one draw per
// op, as the real backends make, and the whole vector fails with its op.
type batchFake struct {
	*fakeBackend
}

func (b batchFake) ApplyBatch(_ context.Context, rng *rand.Rand, ops []ghba.Op) ([]ghba.Result, error) {
	results := make([]ghba.Result, len(ops))
	var failed error
	for i, op := range ops {
		res, err := b.do(rng, op.Path)
		if err != nil {
			failed = err
		}
		results[i] = res
	}
	if failed != nil {
		return nil, failed
	}
	return results, nil
}

// TestDriveLaneStreams pins what every lane sees — its ops in order and the
// first three draws of its RNG — for the two sources Drive is fed: the
// contiguous chunks of LookupParallel and ApplyParallel (n = 10) and the
// split trace of ReplayParallel (10 records, not divisible by 3 or 4). The
// wants are the streams of the per-wrapper loops Drive replaced; lanes are
// listed in sorted order, as a backend cannot see lane numbers.
func TestDriveLaneStreams(t *testing.T) {
	cases := []struct {
		seed         int64
		lanes        int
		chunk, split []string
	}{
		{1, 1,
			[]string{"/p0 /p1 /p2 /p3 /p4 /p5 /p6 /p7 /p8 /p9 | [41 470 239]"},
			[]string{"/sub1/d50/d0/f50 /sub0/d19/d0/f19 /sub1/d5/d0/f5 /sub1/d51/d0/f51 /sub0/d50/d0/f50 /sub0/d51/d0/f51 /sub1/d52/d0/f52 /sub1/d53/d0/f53 /sub0/d19/d0/f19 /sub1/d53/d0/f53 | [41 470 239]"}},
		{1, 3,
			[]string{"/p0 /p1 /p2 /p3 | [41 470 239]", "/p4 /p5 /p6 /p7 | [441 556 510]", "/p8 /p9 | [608 129]"},
			[]string{
				"/sub0/d0/d0/f0 /sub1/d51/d0/f51 /sub1/d51/d0/f51 | [441 556 510]",
				"/sub0/d52/d0/f52 /sub1/d6/d0/f6 /sub0/d52/d0/f52 | [608 129 902]",
				"/sub1/d50/d0/f50 /sub0/d19/d0/f19 /sub1/d5/d0/f5 /sub1/d53/d0/f53 | [41 470 239]",
			}},
		{7, 4,
			[]string{"/p0 /p1 /p2 | [980 77 77]", "/p3 /p4 /p5 | [426 745 815]", "/p6 /p7 /p8 | [956 240 693]", "/p9 | [323]"},
			[]string{
				"/sub0/d0/d0/f0 /sub0/d52/d0/f52 | [956 240]",
				"/sub0/d12/d0/f12 /sub0/d12/d0/f12 /sub0/d12/d0/f12 | [980 77 77]",
				"/sub0/d2/d0/f2 /sub1/d8/d0/f8 /sub1/d8/d0/f8 | [426 745 815]",
				"/sub1/d53/d0/f53 /sub0/d0/d0/f0 | [323 621]",
			}},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed=%d/lanes=%d", c.seed, c.lanes), func(t *testing.T) {
			paths := make([]string, 10)
			ops := make([]ghba.Op, 10)
			for i := range paths {
				paths[i] = fmt.Sprintf("/p%d", i)
				ops[i] = ghba.Op{Kind: ghba.OpCreate, Path: paths[i]}
			}
			f := &fakeBackend{seed: c.seed}
			if _, err := ghba.LookupParallel(ctx, f, paths, c.lanes); err != nil {
				t.Fatal(err)
			}
			if got := f.lanes(); !slices.Equal(got, c.chunk) {
				t.Errorf("LookupParallel lanes:\n got %q\nwant %q", got, c.chunk)
			}
			f = &fakeBackend{seed: c.seed}
			if _, err := ghba.ApplyParallel(ctx, f, ops, c.lanes); err != nil {
				t.Fatal(err)
			}
			if got := f.lanes(); !slices.Equal(got, c.chunk) {
				t.Errorf("ApplyParallel lanes:\n got %q\nwant %q", got, c.chunk)
			}

			// The replay draws from the trace's seed, not the backend's.
			f = &fakeBackend{seed: 99}
			tcfg := trace.Config{Profile: trace.MustMixProfile(60, 25, 15), TIF: 2, FilesPerSubtrace: 50, Seed: c.seed}
			if _, err := experiments.ReplayParallel(ctx, f, tcfg, 10, c.lanes, 1); err != nil {
				t.Fatal(err)
			}
			if got := f.lanes(); !slices.Equal(got, c.split) {
				t.Errorf("ReplayParallel lanes:\n got %q\nwant %q", got, c.split)
			}
		})
	}
}

// TestDriveStopAndErrors pins Drive's error policy on each dispatch shape:
// an op failing in lane 1 of 3 stops lane 1 after that call while lanes 0
// and 2 finish; the joined error names the lane, the op index and the path;
// an observer that swallows errors dispatches every op; and a vector shape
// over a backend that is not a BatchApplier dispatches op by op.
func TestDriveStopAndErrors(t *testing.T) {
	const perLane = 5
	lanes := make([]ghba.Lane, 3)
	var all []string
	for w := range lanes {
		for i := 0; i < perLane; i++ {
			all = append(all, fmt.Sprintf("/l%d/%d", w, i))
		}
		lanes[w] = ghba.Lane{Len: perLane, Op: func(i int) ghba.Op {
			return ghba.Op{Kind: ghba.OpCreate, Path: fmt.Sprintf("/l%d/%d", w, i)}
		}}
	}
	sort.Strings(all)
	const fail = "/l1/2"
	shapes := []struct {
		name  string
		shape ghba.Shape
		batch bool
		// cut is how many of lane 1's ops reach the backend when it stops.
		cut    int
		errMsg string
	}{
		{"lookup", ghba.Shape{Lookup: true}, false, 3, `lane 1, 1 op(s) from op 2 ("/l1/2")`},
		{"apply", ghba.Shape{}, false, 3, `lane 1, 1 op(s) from op 2 ("/l1/2")`},
		{"vector", ghba.Shape{Vector: 2}, true, 4, `lane 1, 2 op(s) from op 2 ("/l1/2")`},
		{"vector/per-op", ghba.Shape{Vector: 2}, false, 3, `lane 1, 1 op(s) from op 2 ("/l1/2")`},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			drive := func(observe ghba.Observer) (*fakeBackend, error) {
				f := &fakeBackend{fail: fail}
				var b ghba.Backend = f
				if s.batch {
					b = batchFake{f}
				}
				return f, ghba.Drive(context.Background(), b, 1, lanes, s.shape, observe)
			}

			var mu sync.Mutex
			widths := map[int]bool{}
			f, err := drive(func(_, _ int, ops []ghba.Op, _ []ghba.Result, err error) error {
				mu.Lock()
				widths[len(ops)] = true
				mu.Unlock()
				return err
			})
			if !errors.Is(err, errFake) || !strings.Contains(err.Error(), s.errMsg) {
				t.Fatalf("error %v, want errFake naming %s", err, s.errMsg)
			}
			var want []string
			for _, p := range all {
				if !strings.HasPrefix(p, "/l1/") || p < fmt.Sprintf("/l1/%d", s.cut) {
					want = append(want, p)
				}
			}
			if got := f.dispatched(); !slices.Equal(got, want) {
				t.Errorf("dispatched %q, want %q", got, want)
			}
			if wantWide := s.batch; widths[2] != wantWide || !widths[1] {
				t.Errorf("call widths %v, want vectors of 2: %v", widths, wantWide)
			}

			var failed int
			f, err = drive(func(_, _ int, _ []ghba.Op, _ []ghba.Result, err error) error {
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
				}
				return nil
			})
			if err != nil || failed != 1 {
				t.Errorf("tolerant observer: error %v after %d failed call(s), want nil after 1", err, failed)
			}
			if got := f.dispatched(); !slices.Equal(got, all) {
				t.Errorf("tolerant observer dispatched %q, want every op", got)
			}
		})
	}
}
