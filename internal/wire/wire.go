// Package wire is the one bounds-checked reader for bytes a daemon did not
// write itself: RPC bodies from peers and snapshots and filters from disk.
// Every decoder in proto, mds and bloom whose input carries a count or a
// length reads through a Reader, so how untrusted bytes are checked is
// decided here once. A Reader refuses three things: a read past the end
// (it fails, sticky), a count the remaining bytes cannot carry (Count,
// Count16), and bytes left over once a decoder is finished (Done).
package wire

import (
	"encoding/binary"
	"fmt"
)

// Reader is a big-endian cursor over one input. A read past the end marks
// it failed and returns zeros, and every later read fails too, so a decoder
// reads a whole structure and checks once, with Done or Failed, instead of
// after every field.
type Reader struct {
	data   []byte
	off    int
	failed bool
}

// NewReader returns a reader positioned at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Bytes returns the next n bytes. They alias the input: a value kept after
// the input is reused must be copied out of them.
func (r *Reader) Bytes(n int) []byte {
	if r.failed || n < 0 || len(r.data)-r.off < n {
		r.failed = true
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Rest returns every unread byte, aliasing the input.
func (r *Reader) Rest() []byte { return r.Bytes(len(r.data) - r.off) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Count reads a uint32 element count and fails when the unread bytes cannot
// hold that many elements of at least minSize bytes each, so a decoder may
// allocate for the count it returns. minSize must be positive.
func (r *Reader) Count(minSize int) int { return r.fits(int(r.U32()), minSize) }

// Count16 is Count for a uint16 count.
func (r *Reader) Count16(minSize int) int { return r.fits(int(r.U16()), minSize) }

func (r *Reader) fits(n, minSize int) int {
	if n < 0 || n > (len(r.data)-r.off)/minSize {
		r.failed = true
		return 0
	}
	return n
}

// String16 reads a uint16-length-prefixed string, copied out of the input.
func (r *Reader) String16() string { return string(r.Bytes(int(r.U16()))) }

// AppendString16 appends s in String16's form. s must be at most 65,535
// bytes; every format that frames a path this way refuses longer ones
// before encoding.
func AppendString16(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// Failed reports whether a read has failed.
func (r *Reader) Failed() bool { return r.failed }

// Done reports whether the decoder read its input exactly: nil, "truncated
// <what>" after a failed read, or "<n> bytes after <what>" when bytes are
// left over.
func (r *Reader) Done(what string) error {
	if r.failed {
		return fmt.Errorf("truncated %s", what)
	}
	if n := len(r.data) - r.off; n != 0 {
		return fmt.Errorf("%d bytes after %s", n, what)
	}
	return nil
}
