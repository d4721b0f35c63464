// Package regress pins the engine shapes hotalloc caught when the hot-path
// tags first landed, next to their fixes, so neither the detection nor the
// resolution can silently regress.
package regress

import (
	"fmt"
	"io"
)

const maxMessage = 1 << 20

// writeFrameBad is the pre-fix shape of rpcnet.writeMuxFrame: building the
// oversized-payload error with fmt.Errorf drags formatting machinery (and
// the boxing of the int argument) into the tagged frame-write path.
//
//ghbavet:hotpath
func writeFrameBad(w io.Writer, payload []byte) error {
	if len(payload) > maxMessage {
		return fmt.Errorf("payload %d bytes exceeds limit", len(payload)) // want `interface boxing` `call to fmt\.Errorf allocates`
	}
	_, err := w.Write(payload)
	return err
}

// errTooBig is the fix: a value-typed error whose message is formatted only
// when a caller reads it, leaving the size check itself allocation-free.
type errTooBig int

func (e errTooBig) Error() string {
	return fmt.Sprintf("payload %d bytes exceeds limit", int(e))
}

//ghbavet:hotpath
func writeFrameFixed(w io.Writer, payload []byte) error {
	if len(payload) > maxMessage {
		return errTooBig(len(payload))
	}
	_, err := w.Write(payload)
	return err
}

// observe models bloomarray.(*LRUArray).ObserveDigest: the re-observe fast
// path is allocation-free (and so is inserting a new key), but a home's first
// observation — like a generation rotation — publishes a fresh state.
// The flow-insensitive analyzer cannot separate the two, so the whole
// function carries an allocation fact.
func observe(m map[int]*int, key int) {
	if m[key] != nil {
		return
	}
	fresh := new(int)
	m[key] = fresh
}

// lookupBad is the pre-fix shape of core.lookupEpoch's L1 learning write:
// the amortized slow path surfaces as a hot-path finding at the call site.
//
//ghbavet:hotpath
func lookupBad(m map[int]*int, key int) {
	observe(m, key) // want `call to regress\.observe allocates`
}

// lookupFixed is the resolution: the call is genuinely amortized, so it
// carries a documented suppression rather than a restructuring.
//
//ghbavet:hotpath
func lookupFixed(m map[int]*int, key int) {
	//ghbavet:ignore learning allocates only on first observation or rotation
	observe(m, key)
}

var _ = writeFrameBad
var _ = writeFrameFixed
var _ = lookupBad
var _ = lookupFixed
