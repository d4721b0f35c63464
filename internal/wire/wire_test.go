package wire

import (
	"bytes"
	"testing"
)

// TestReader runs each decoding step against a fixed input and checks what
// the step returns, whether the reader has failed after it and what Done
// reports at the end.
func TestReader(t *testing.T) {
	// count 2 | "ab" | "" , then one spare byte.
	pair := []byte{0, 0, 0, 2, 0, 2, 'a', 'b', 0, 0, 9}
	cases := []struct {
		name   string
		in     []byte
		read   func(r *Reader) any
		want   any
		failed bool
		done   string // Done's message, "" for nil
	}{
		{"fixed widths", []byte{1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4},
			func(r *Reader) any { return [4]uint64{uint64(r.U8()), uint64(r.U16()), uint64(r.U32()), r.U64()} },
			[4]uint64{1, 2, 3, 4}, false, ""},
		{"read past the end returns zero", []byte{0, 1, 2},
			func(r *Reader) any { return r.U32() }, uint32(0), true, "truncated x"},
		{"failure is sticky", []byte{7, 0, 0},
			func(r *Reader) any { r.U32(); return [2]uint64{uint64(r.U8()), uint64(len(r.Rest()))} },
			[2]uint64{0, 0}, true, "truncated x"},
		{"negative length", []byte{1},
			func(r *Reader) any { return r.Bytes(-1) == nil }, true, true, "truncated x"},
		{"strings then a spare byte", pair,
			func(r *Reader) any {
				n := r.Count(2)
				return [3]any{n, r.String16(), r.String16()}
			}, [3]any{2, "ab", ""}, false, "1 bytes after x"},
		// After the count, 7 bytes are left: at most three 2-byte elements
		// or seven 1-byte ones.
		{"count at the boundary", pair,
			func(r *Reader) any { return r.Count(3) }, 2, false, "7 bytes after x"},
		{"count one past the boundary", pair,
			func(r *Reader) any { return r.Count(4) }, 0, true, "truncated x"},
		{"uint16 count at the boundary", []byte{0, 2, 1, 2, 3, 4},
			func(r *Reader) any { return r.Count16(2) }, 2, false, "4 bytes after x"},
		{"uint16 count one past the boundary", []byte{0, 3, 1, 2, 3, 4, 5},
			func(r *Reader) any { return r.Count16(2) }, 0, true, "truncated x"},
		{"count on a failed reader", []byte{0, 0, 0},
			func(r *Reader) any { return r.Count(1) }, 0, true, "truncated x"},
		{"string longer than the input", []byte{0, 3, 'a', 'b'},
			func(r *Reader) any { return r.String16() }, "", true, "truncated x"},
		{"rest consumes everything", []byte{0, 0, 0, 5, 'h', 'i'},
			func(r *Reader) any { return [2]any{r.U32(), string(r.Rest())} }, [2]any{uint32(5), "hi"}, false, ""},
		{"empty input read exactly", nil,
			func(r *Reader) any { return len(r.Rest()) }, 0, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.in)
			if got := tc.read(&r); got != tc.want {
				t.Errorf("read %v, want %v", got, tc.want)
			}
			if r.Failed() != tc.failed {
				t.Errorf("Failed() = %v, want %v", r.Failed(), tc.failed)
			}
			done := "" // Done returned nil
			if err := r.Done("x"); err != nil {
				done = err.Error()
			}
			if done != tc.done {
				t.Errorf("Done = %q, want %q", done, tc.done)
			}
		})
	}
}

// TestString16RoundTrip checks that String16 reads AppendString16's form,
// and that the string it returns is a copy: overwriting the input leaves it
// alone.
func TestString16RoundTrip(t *testing.T) {
	want := []string{"", "/a", string(bytes.Repeat([]byte{0xff}, 300))}
	var buf []byte
	for _, s := range want {
		buf = AppendString16(buf, s)
	}
	r := NewReader(buf)
	var got []string
	for range want {
		got = append(got, r.String16())
	}
	if err := r.Done("strings"); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'z'
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("string %d reads %q after its input was overwritten, want %q", i, got[i], want[i])
		}
	}
}
