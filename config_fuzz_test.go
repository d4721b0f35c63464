package ghba

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// FuzzNewConfig feeds New arbitrary sizing: every field a caller sets, with
// BitsPerFile as any float64 bit pattern. New must either refuse the config
// as a *ConfigError or return a backend that serves a lookup; it must never
// panic. The TCP backend's validation must agree on the shared half: both
// accept, or both refuse the same field (no daemon starts). Finite
// geometries past 2^24 bits per filter, or a fleet whose replicas would pass
// 2^28 bits, are skipped so a run never allocates gigabytes.
//
//	go test -run '^$' -fuzz FuzzNewConfig -fuzztime=10s .
func FuzzNewConfig(f *testing.F) {
	f.Add(4, 0, uint64(1_000), math.Float64bits(16), uint64(0), uint64(0), 0)
	f.Add(4, 0, uint64(1_000), math.Float64bits(math.NaN()), uint64(0), uint64(0), 0)
	f.Add(4, 0, uint64(1_000), math.Float64bits(math.Inf(1)), uint64(0), uint64(0), 0)
	f.Add(4, 0, uint64(1_000), math.Float64bits(math.Inf(-1)), uint64(0), uint64(0), 0)
	f.Add(4, 0, uint64(1_000), math.Float64bits(1e300), uint64(0), uint64(0), 0)
	f.Add(3, 1, uint64(100), math.Float64bits(8), uint64(64), uint64(1<<20), 4)
	f.Add(0, -1, uint64(0), math.Float64bits(-2), uint64(0), uint64(1), -1)
	f.Add(4, math.MaxInt, uint64(100), math.Float64bits(16), uint64(0), uint64(0), math.MaxInt)
	f.Fuzz(func(t *testing.T, numMDS, maxGroup int, files, bitsPattern, lruCap, budget uint64, shipBatch int) {
		cfg := Config{
			NumMDS:              numMDS,
			MaxGroupSize:        maxGroup,
			ExpectedFilesPerMDS: files,
			BitsPerFile:         math.Float64frombits(bitsPattern),
			LRUCapacity:         lruCap,
			MemoryBudgetBytes:   budget,
			ShipBatch:           shipBatch,
		}
		err := cfg.validate()
		if perr := (PrototypeConfig{Config: cfg}).validate(); configField(perr) != configField(err) {
			t.Fatalf("%+v: Config.validate = %v, PrototypeConfig.validate = %v", cfg, err, perr)
		}
		// New refuses a config validate refuses before it sizes anything, so
		// only an accepted one can be too large to build here. Past
		// validate, every BitsPerFile is finite and positive.
		if err == nil {
			nc := cfg.nodeConfig()
			filterBits := float64(nc.ExpectedFiles) * nc.BitsPerFile
			if numMDS > 8 || filterBits > 1<<24 || float64(nc.LRUCapacity)*nc.BitsPerFile > 1<<24 ||
				float64(numMDS*numMDS)*filterBits > 1<<28 {
				t.Skip("fleet or geometry too large for a fuzz run")
			}
		}
		s, err := New(cfg)
		if err != nil {
			var cerr *ConfigError
			if !errors.As(err, &cerr) {
				t.Fatalf("New(%+v) = %v, want a *ConfigError", cfg, err)
			}
			return
		}
		res, err := s.LookupWith(context.Background(), rand.New(rand.NewSource(42)), "/fuzz/absent")
		if err != nil || res.Found {
			t.Fatalf("New(%+v): lookup of an absent path = %+v, %v", cfg, res, err)
		}
		if n := s.NumMDS(); n != numMDS {
			t.Fatalf("New(%+v) built %d servers", cfg, n)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
	})
}

// configField names the field a *ConfigError rejects, "" for nil.
func configField(err error) string {
	var cerr *ConfigError
	if errors.As(err, &cerr) {
		return cerr.Field
	}
	if err != nil {
		return "not a *ConfigError: " + err.Error()
	}
	return ""
}
