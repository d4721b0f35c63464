package bloom

import (
	"encoding"
	"encoding/binary"
	"fmt"
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

	// maxWireM and maxWireK bound decoded geometry. A filter body must
	// match m anyway, so a huge m cannot force a huge allocation — but an
	// unchecked m near 2^64 overflows the word-count arithmetic, and an
	// absurd k would make every later probe of a decoded filter loop for
	// seconds (a cheap denial of service through the prototype's RPC
	// layer). 2^48 bits is 32 TiB of filter, and the optimal k for any
	// realistic bits-per-item ratio is well under 64; both caps are far
	// outside anything a peer can legitimately ship.
	maxWireM = uint64(1) << 48
	maxWireK = uint32(512)
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

func parseHeader(data []byte) (magic uint16, m uint64, k uint32, n uint64, err error) {
	if len(data) < headerLen {
		return 0, 0, 0, 0, fmt.Errorf("bloom: truncated header: %d bytes", len(data))
	}
	magic = binary.BigEndian.Uint16(data[0:2])
	m = binary.BigEndian.Uint64(data[2:10])
	k = binary.BigEndian.Uint32(data[10:14])
	n = binary.BigEndian.Uint64(data[14:22])
	if m == 0 || k == 0 {
		return 0, 0, 0, 0, fmt.Errorf("%w: m=%d k=%d", ErrInvalidGeometry, m, k)
	}
	if m > maxWireM || k > maxWireK {
		return 0, 0, 0, 0, fmt.Errorf("%w: implausible wire geometry m=%d k=%d", ErrInvalidGeometry, m, k)
	}
	return magic, m, k, n, nil
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
	magic, m, k, n, err := parseHeader(data)
	if err != nil {
		return err
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
	// The word arithmetic stays in uint64: parseHeader capped m, so
	// neither the rounding nor the byte count can overflow.
	nw := int((m + wordBits - 1) / wordBits)
	if uint64(len(data)-headerLen) != uint64(nw)*8 {
		return fmt.Errorf("bloom: body length %d, want %d", len(data)-headerLen, nw*8)
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.BigEndian.Uint64(data[headerLen+i*8:])
	}
	f.m, f.k, f.layout, f.words = m, k, layout, words
	f.setCount(n)
	return nil
}
