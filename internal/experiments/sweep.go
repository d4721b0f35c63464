package experiments

import (
	"context"
	"runtime"

	"ghba"
)

// GroundTruth is a backend that also answers where a path is homed without
// walking the lookup hierarchy — both shipped backends do (HomeOf).
type GroundTruth interface {
	ghba.Backend
	// HomeOf returns path's ground-truth home, or -1 when it is absent.
	HomeOf(path string) int
}

// SweepStats is the tally of one ground-truth sweep.
type SweepStats struct {
	// Paths is the number of paths swept; Live how many of them ground
	// truth homes somewhere.
	Paths, Live int
	// Lost counts live paths the lookup missed; WrongHome live paths it
	// found at another server; Phantom paths it found that ground truth
	// says are gone; Errors lookups that failed outright.
	Lost, WrongHome, Phantom, Errors int
}

// Clean reports whether every answer agreed with ground truth.
func (s SweepStats) Clean() bool {
	return s.Lost == 0 && s.WrongHome == 0 && s.Phantom == 0 && s.Errors == 0
}

// Sweep is the one ground-truth check: a fresh lookup of every path, each
// answer compared with b.HomeOf. The paths are cut into at most workers
// contiguous lanes (workers < 1 selects GOMAXPROCS) run by ghba.Drive from
// seed; the observer tallies and never stops a lane, so every path is asked
// whatever the others answered. Run it at a quiescent point: a path mutated
// while the sweep runs may disagree with the truth read beside its lookup.
func Sweep(ctx context.Context, b GroundTruth, paths []string, seed int64, workers int) SweepStats {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (len(paths) + workers - 1) / workers
	var lanes []ghba.Lane
	for lo := 0; lo < len(paths); lo += chunk {
		part := paths[lo:min(lo+chunk, len(paths))]
		lanes = append(lanes, ghba.Lane{Len: len(part), Op: func(i int) ghba.Op {
			return ghba.Op{Kind: ghba.OpLookup, Path: part[i]}
		}})
	}
	tally := make([]SweepStats, len(lanes))
	// The observer never stops a lane, so Drive has no error to return.
	_ = ghba.Drive(ctx, b, seed, lanes, ghba.Shape{Lookup: true}, func(w, _ int, ops []ghba.Op, res []ghba.Result, err error) error {
		s := &tally[w]
		s.Paths++
		want := b.HomeOf(ops[0].Path)
		if want >= 0 {
			s.Live++
		}
		switch {
		case err != nil:
			s.Errors++
		case want >= 0 && !res[0].Found:
			s.Lost++
		case want >= 0 && res[0].Home != want:
			s.WrongHome++
		case want < 0 && res[0].Found:
			s.Phantom++
		}
		return nil
	})
	var out SweepStats
	for _, s := range tally {
		out.Paths += s.Paths
		out.Live += s.Live
		out.Lost += s.Lost
		out.WrongHome += s.WrongHome
		out.Phantom += s.Phantom
		out.Errors += s.Errors
	}
	return out
}
