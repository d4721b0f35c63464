//go:build race

package core

// raceEnabled reports whether the test binary runs under the race detector,
// which makes sync.Pool drop a share of its Puts on purpose.
const raceEnabled = true
