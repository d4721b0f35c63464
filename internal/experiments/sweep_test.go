package experiments

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"ghba"
)

// truthBackend answers lookups from answers and ground truth from truth (a
// path truth lacks is absent); a path in fail errors. Methods Sweep never
// calls panic through the nil embedded Backend.
type truthBackend struct {
	ghba.Backend
	truth   map[string]int
	answers map[string]ghba.Result
	fail    string
}

func (f *truthBackend) LookupWith(_ context.Context, _ *rand.Rand, path string) (ghba.Result, error) {
	if path == f.fail {
		return ghba.Result{}, errors.New("injected failure")
	}
	return f.answers[path], nil
}

func (f *truthBackend) HomeOf(path string) int {
	if home, ok := f.truth[path]; ok {
		return home
	}
	return -1
}

// TestSweepTalliesEveryDisagreement pins the sweep's classes over a backend
// with one of each: a phantom (a deleted path the lookup still finds), a lost
// file, a wrong home and a failed lookup. No answer stops a lane, so every
// path is asked at every lane count.
func TestSweepTalliesEveryDisagreement(t *testing.T) {
	f := &truthBackend{truth: map[string]int{}, answers: map[string]ghba.Result{}, fail: "/err"}
	var paths []string
	for i := 0; i < 20; i++ {
		p := "/ok" + strconv.Itoa(i)
		f.truth[p] = i % 4
		f.answers[p] = ghba.Result{Found: true, Home: i % 4}
		paths = append(paths, p)
	}
	f.answers["/phantom"] = ghba.Result{Found: true, Home: 2}
	f.truth["/lost"] = 1
	f.truth["/wrong"] = 1
	f.answers["/wrong"] = ghba.Result{Found: true, Home: 3}
	f.truth["/err"] = 0
	paths = append(paths, "/gone", "/phantom", "/lost", "/wrong", "/err")
	want := SweepStats{Paths: 25, Live: 23, Lost: 1, WrongHome: 1, Phantom: 1, Errors: 1}
	for _, workers := range []int{1, 3, 25, 40} {
		if got := Sweep(context.Background(), f, paths, 1, workers); got != want {
			t.Errorf("%d workers: %+v, want %+v", workers, got, want)
		}
		if got := Sweep(context.Background(), f, paths[:20], 1, workers); !got.Clean() || got.Paths != 20 {
			t.Errorf("%d workers over agreeing paths: %+v, want a clean sweep of 20", workers, got)
		}
	}
	if got := Sweep(context.Background(), f, nil, 1, 4); got != (SweepStats{}) || !got.Clean() {
		t.Errorf("empty sweep: %+v", got)
	}
}
