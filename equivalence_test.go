package ghba

// Pinned lookup-equivalence test: the digest pipeline must not change a
// single simulated outcome. The fingerprints below were captured from the
// pre-digest lookup path (hash-per-probe, map-backed arrays) under the fixed
// seeds used here; any change to hashing, probe order, unique-hit semantics,
// or message accounting shows up as a fingerprint or tally mismatch.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"ghba/internal/core"
	"ghba/internal/simnet"
)

// eqMix folds one lookup outcome into a running FNV-1a fingerprint.
func eqMix(fp uint64, path string, home, level int) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	if fp == 0 {
		fp = offset
	}
	s := path + ":" + strconv.Itoa(home) + ":" + strconv.Itoa(level)
	for i := 0; i < len(s); i++ {
		fp ^= uint64(s[i])
		fp *= prime
	}
	return fp
}

func eqPaths(n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/eq/dir%d/file%d", i%53, i)
	}
	return paths
}

// TestLookupEquivalenceGHBA pins the full observable outcome of a fixed-seed
// G-HBA run: per-lookup (home, level) fingerprint, per-level tallies, and
// query message counts.
func TestLookupEquivalenceGHBA(t *testing.T) {
	cfg := core.DefaultConfig(24, 6)
	cfg.Seed = 42
	cl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := eqPaths(2_500)
	cl.Populate(func(fn func(string) bool) {
		for _, p := range paths {
			if !fn(p) {
				return
			}
		}
	})
	rng := rand.New(rand.NewSource(7))
	var fp uint64
	for i := 0; i < 5_000; i++ {
		p := paths[(i*13)%len(paths)]
		if i%10 == 9 {
			p = "/eq/absent" + strconv.Itoa(i)
		}
		res := cl.LookupWith(rng, p, -1)
		fp = eqMix(fp, p, res.Home, res.Level)
	}

	var levels [5]uint64
	for l := 1; l <= 4; l++ {
		levels[l] = cl.Tally().Count(l)
	}
	uni := cl.Messages().Get(simnet.MsgQueryUnicast)
	multi := cl.Messages().Get(simnet.MsgQueryMulticast)

	const (
		wantFP      = uint64(8455129467961161397)
		wantL1      = uint64(2250)
		wantL2      = uint64(368)
		wantL3      = uint64(1882)
		wantL4      = uint64(500)
		wantUnicast = uint64(4416)
		wantMulti   = uint64(23410)
	)
	if fp != wantFP || levels[1] != wantL1 || levels[2] != wantL2 ||
		levels[3] != wantL3 || levels[4] != wantL4 ||
		uni != wantUnicast || multi != wantMulti {
		t.Fatalf("G-HBA equivalence drifted:\n  fp=%d\n  L1=%d L2=%d L3=%d L4=%d\n  unicast=%d multicast=%d",
			fp, levels[1], levels[2], levels[3], levels[4], uni, multi)
	}
}

// TestLookupEquivalenceHBA pins the same outcome for the HBA baseline —
// groups of one — whose global array is the densest consumer of the digest
// path. The constants were captured from the separate HBA simulator this
// engine replaced.
func TestLookupEquivalenceHBA(t *testing.T) {
	cfg := core.DefaultConfig(24, 1)
	cfg.Seed = 42
	cl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := eqPaths(2_500)
	cl.Populate(func(fn func(string) bool) {
		for _, p := range paths {
			if !fn(p) {
				return
			}
		}
	})
	ids := cl.MDSIDs()
	rng := rand.New(rand.NewSource(42)) // every entry is a member: no draw
	var fp uint64
	for i := 0; i < 5_000; i++ {
		p := paths[(i*13)%len(paths)]
		if i%10 == 9 {
			p = "/eq/absent" + strconv.Itoa(i)
		}
		res := cl.LookupWith(rng, p, ids[i%len(ids)])
		fp = eqMix(fp, p, res.Home, res.Level)
	}

	var levels [5]uint64
	for l := 1; l <= 4; l++ {
		levels[l] = cl.Tally().Count(l)
	}
	uni := cl.Messages().Get(simnet.MsgQueryUnicast)
	multi := cl.Messages().Get(simnet.MsgQueryMulticast)

	const (
		wantFP      = uint64(4359075373836914151)
		wantL1      = uint64(2250)
		wantL2      = uint64(2250)
		wantL4      = uint64(500)
		wantUnicast = uint64(4409)
		wantMulti   = uint64(11500)
	)
	if fp != wantFP || levels[1] != wantL1 || levels[2] != wantL2 ||
		levels[4] != wantL4 || uni != wantUnicast || multi != wantMulti {
		t.Fatalf("HBA equivalence drifted:\n  fp=%d\n  L1=%d L2=%d L4=%d\n  unicast=%d multicast=%d",
			fp, levels[1], levels[2], levels[4], uni, multi)
	}
}
