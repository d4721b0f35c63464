package rpcnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzFrameRoundTrip hardens the mux frame codec against hostile streams:
// every write must read back bit-identical, and arbitrary bytes fed to the
// reader must either parse within the length caps or error — never panic,
// and never allocate anywhere near a declared-but-absent payload length.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0), byte(1), []byte(nil))
	f.Add(uint64(1), byte(0), []byte("/usr/share/file"))
	f.Add(uint64(1<<40), byte(255), bytes.Repeat([]byte{0xAB}, 1000))
	f.Add(uint64(7), byte(2), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, id uint64, lead byte, payload []byte) {
		// Round trip: write then read back, field for field.
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeMuxFrame(bw, id, lead, payload); err != nil {
			t.Fatalf("writeMuxFrame(%d, %d, %d bytes): %v", id, lead, len(payload), err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		gotID, gotLead, gotPayload, err := readMuxFrame(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("readMuxFrame after clean write: %v", err)
		}
		if gotID != id || gotLead != lead || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip mangled: id %d→%d lead %d→%d payload %d→%d bytes",
				id, gotID, lead, gotLead, len(payload), len(gotPayload))
		}

		// Every truncation of a valid frame must error, never hang or panic.
		for _, cut := range []int{0, 1, 4, 4 + muxFrameOverhead - 1, len(wire) - 1} {
			if cut >= len(wire) {
				continue
			}
			if _, _, _, err := readMuxFrame(bytes.NewReader(wire[:cut])); err == nil {
				t.Fatalf("truncated frame (%d of %d bytes) parsed cleanly", cut, len(wire))
			}
		}

		// The raw fuzz payload reinterpreted as a stream must parse or error
		// without overallocating: a stream of S bytes can never make the
		// reader retain much more than S bytes, whatever lengths it declares.
		if id, _, body, err := readMuxFrame(bytes.NewReader(payload)); err == nil {
			if len(body) > len(payload) {
				t.Fatalf("reader produced %d payload bytes from a %d-byte stream", len(body), len(payload))
			}
			_ = id
		}

		// A declared length beyond MaxMessageBytes must be rejected before
		// any body is read.
		var hostile [4 + muxFrameOverhead]byte
		binary.BigEndian.PutUint32(hostile[:4], uint32(MaxMessageBytes+1))
		if _, _, _, err := readMuxFrame(bytes.NewReader(hostile[:])); err == nil {
			t.Fatal("oversized frame length accepted")
		}
		// And one below the header overhead likewise (it cannot carry the
		// request ID and lead byte).
		binary.BigEndian.PutUint32(hostile[:4], uint32(muxFrameOverhead-1))
		if _, _, _, err := readMuxFrame(bytes.NewReader(hostile[:])); err == nil {
			t.Fatal("undersized frame length accepted")
		}
	})
}

// FuzzMuxReaderStream feeds arbitrary byte streams to the frame reader in a
// loop, the way the connection's read loop consumes a socket: every frame
// parsed must be well-formed, and the first malformed one must error out
// without panicking.
func FuzzMuxReaderStream(f *testing.F) {
	var seed bytes.Buffer
	bw := bufio.NewWriter(&seed)
	writeMuxFrame(bw, 3, 0, []byte("a"))
	writeMuxFrame(bw, 4, 1, nil)
	bw.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte(muxMagic))
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			_, _, payload, err := readMuxFrame(r)
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && len(payload) != 0 {
					t.Fatalf("error %v returned alongside %d payload bytes", err, len(payload))
				}
				return
			}
		}
	})
}
