package bloom

import (
	"encoding"
	"encoding/binary"
	"fmt"

	"ghba/internal/wire"
)

// Binary wire format shared by the simulator checkpoints and the prototype
// RPC layer. Layout (big endian):
//
//	magic  uint16  — 0xB1F0 classic Filter, 0xB1F2 blocked Filter
//	m      uint64
//	k      uint32
//	n      uint64
//	body   — ⌈m/64⌉ uint64 words
//
// The magic number doubles as the geometry tag for the bit layout: a classic
// filter round-trips byte-for-byte as it always has (0xB1F0), while a
// blocked filter announces itself with 0xB1F2 so a decoder that predates the
// blocked layout rejects it loudly instead of probing the vector with the
// wrong position function.

const (
	magicFilter        uint16 = 0xB1F0
	magicBlockedFilter uint16 = 0xB1F2
	headerLen                 = 2 + 8 + 4 + 8

	// maxWireM bounds a decoded filter's length. A filter body must match
	// m anyway, so a huge m cannot force a huge allocation — but an
	// unchecked m near 2^64 overflows the word-count arithmetic. 2^48 bits
	// is 32 TiB of filter, far outside anything a peer can legitimately
	// ship. The hash count is held to MaxK, the bound every constructor
	// enforces, so a decoded filter is one the package could have built and
	// its probes read a digest's cached positions.
	maxWireM = uint64(1) << 48
)

var (
	_ encoding.BinaryMarshaler   = (*Filter)(nil)
	_ encoding.BinaryUnmarshaler = (*Filter)(nil)
)

// wireMagic returns the magic announcing the filter's layout on the wire.
func (f *Filter) wireMagic() uint16 {
	if f.layout == LayoutBlocked {
		return magicBlockedFilter
	}
	return magicFilter
}

func putHeader(buf []byte, magic uint16, m uint64, k uint32, n uint64) {
	binary.BigEndian.PutUint16(buf[0:2], magic)
	binary.BigEndian.PutUint64(buf[2:10], m)
	binary.BigEndian.PutUint32(buf[10:14], k)
	binary.BigEndian.PutUint64(buf[14:22], n)
}

// MarshalBinary encodes the filter in the wire format above.
func (f *Filter) MarshalBinary() ([]byte, error) {
	buf := make([]byte, headerLen+len(f.words)*8)
	putHeader(buf, f.wireMagic(), f.m, f.k, f.Count())
	for i, w := range f.words {
		binary.BigEndian.PutUint64(buf[headerLen+i*8:], w)
	}
	return buf, nil
}

// UnmarshalBinary decodes a filter previously encoded with MarshalBinary,
// accepting both the classic and the blocked magic and restoring the
// corresponding layout.
func (f *Filter) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	magic, m, k, n := r.U16(), r.U64(), r.U32(), r.U64()
	switch {
	case r.Failed():
		return fmt.Errorf("bloom: truncated header: %d bytes", len(data))
	case m == 0 || k == 0:
		return fmt.Errorf("%w: m=%d k=%d", ErrInvalidGeometry, m, k)
	case m > maxWireM || k > MaxK:
		return fmt.Errorf("%w: implausible wire geometry m=%d k=%d", ErrInvalidGeometry, m, k)
	}
	var layout Layout
	switch magic {
	case magicFilter:
		layout = LayoutClassic
	case magicBlockedFilter:
		layout = LayoutBlocked
		if m%blockBits != 0 {
			return fmt.Errorf("%w: blocked filter m=%d not a multiple of %d", ErrInvalidGeometry, m, blockBits)
		}
	default:
		return fmt.Errorf("bloom: bad magic 0x%04x (want 0x%04x or 0x%04x)", magic, magicFilter, magicBlockedFilter)
	}
	// With m capped, the body's byte count 8·⌈m/64⌉ ≤ 2^45 fits an int, and
	// the body must be exactly that long before anything is allocated.
	nw := int((m + wordBits - 1) / wordBits)
	body := wire.NewReader(r.Bytes(8 * nw))
	if err := r.Done("filter body"); err != nil {
		return fmt.Errorf("bloom: %w", err)
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = body.U64()
	}
	f.m, f.k, f.layout, f.words = m, k, layout, words
	f.setCount(n)
	return nil
}
