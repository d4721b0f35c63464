package bloom_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"ghba"
	"ghba/internal/bloom"
	"ghba/internal/bloomarray"
	"ghba/internal/mds"
)

// TestMaxKIsTheOneBound pins bloom.MaxK as the only bound on the hash count,
// at every entry point that sizes or decodes a filter: each accepts the
// geometry with k = MaxK (46 bits per item) and refuses the one with
// k = MaxK+1 (47 bits per item).
func TestMaxKIsTheOneBound(t *testing.T) {
	if got := bloom.OptimalK(46); got != bloom.MaxK {
		t.Fatalf("OptimalK(46) = %d, want MaxK = %d", got, bloom.MaxK)
	}
	if got := bloom.OptimalK(47); got != bloom.MaxK+1 {
		t.Fatalf("OptimalK(47) = %d, want MaxK+1 = %d", got, bloom.MaxK+1)
	}
	invalidGeometry := func(err error) bool { return errors.Is(err, bloom.ErrInvalidGeometry) }
	// wire encodes a filter at k = MaxK and rewrites its header's k.
	wire := func(k uint32) []byte {
		f, err := bloom.New(1024, bloom.MaxK)
		if err != nil {
			t.Fatal(err)
		}
		f.AddString("/wire/k")
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(data[10:14], k)
		return data
	}
	for _, tc := range []struct {
		name string
		// build sizes a filter at the given bits per item, whose optimal
		// hash count is the given k.
		build   func(bits float64, k uint32) error
		refused func(error) bool
	}{
		{"NewLayout/classic", func(_ float64, k uint32) error {
			_, err := bloom.NewLayout(4096, k, bloom.LayoutClassic)
			return err
		}, invalidGeometry},
		{"NewLayout/blocked", func(_ float64, k uint32) error {
			_, err := bloom.NewLayout(4096, k, bloom.LayoutBlocked)
			return err
		}, invalidGeometry},
		{"CapacityGeometry", func(bits float64, _ uint32) error {
			_, _, err := bloom.CapacityGeometry(1000, bits, bloom.LayoutClassic)
			return err
		}, invalidGeometry},
		{"NewForCapacity", func(bits float64, _ uint32) error {
			_, err := bloom.NewForCapacity(1000, bits)
			return err
		}, invalidGeometry},
		{"UnmarshalBinary", func(_ float64, k uint32) error {
			var f bloom.Filter
			return f.UnmarshalBinary(wire(k))
		}, invalidGeometry},
		{"bloomarray.NewLRUArray", func(bits float64, _ uint32) error {
			_, err := bloomarray.NewLRUArray(64, bits)
			return err
		}, invalidGeometry},
		{"mds.NewNode", func(bits float64, _ uint32) error {
			_, err := mds.NewNode(0, mds.Config{ExpectedFiles: 1000, BitsPerFile: bits, LRUCapacity: 64, LRUBitsPerFile: 16})
			return err
		}, invalidGeometry},
		{"ghba.New", func(bits float64, _ uint32) error {
			_, err := ghba.New(ghba.Config{NumMDS: 2, ExpectedFilesPerMDS: 1000, BitsPerFile: bits})
			return err
		}, func(err error) bool {
			var ce *ghba.ConfigError
			return errors.As(err, &ce) && ce.Field == "BitsPerFile"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build(46, bloom.MaxK); err != nil {
				t.Errorf("k = MaxK (46 bits per item) refused: %v", err)
			}
			if err := tc.build(47, bloom.MaxK+1); !tc.refused(err) {
				t.Errorf("k = MaxK+1 (47 bits per item): err = %v, want it refused", err)
			}
		})
	}
}
