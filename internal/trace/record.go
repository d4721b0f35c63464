// Package trace is the workload substrate standing in for the HP, RES and
// INS file-system traces the paper replays (Section 4, Tables 3–4). The real
// traces are not redistributable, so this package generates synthetic
// streams that preserve the properties the G-HBA experiments depend on:
//
//   - the published operation mix (open/close/stat ratios of each trace),
//   - Zipf-skewed file popularity,
//   - strong temporal locality (a working-set re-reference process) that the
//     L1 LRU arrays can capture,
//   - the paper's own TIF intensification: TIF sub-traces with disjoint
//     namespaces, host IDs and user IDs, replayed concurrently from the same
//     start time.
//
// Generators are fully deterministic given a seed, so every experiment in
// this repository is reproducible bit for bit.
package trace

import "time"

// OpType identifies a metadata operation. Data-path reads and writes are
// filtered out, as in the paper ("we filter out requests, such as read and
// write, that are not related to the metadata operations").
type OpType uint8

// Metadata operation kinds.
const (
	OpOpen OpType = iota + 1
	OpClose
	OpStat
	OpCreate
	OpDelete
)

// Record is one trace event.
type Record struct {
	// Seq is the global sequence number within the merged stream.
	Seq uint64
	// At is the arrival time offset from the start of the replay.
	At time.Duration
	// Op is the operation kind.
	Op OpType
	// Path is the full file path, including the subtrace prefix that keeps
	// intensified namespaces disjoint.
	Path string
	// Subtrace identifies which of the TIF concurrent sub-traces emitted
	// the record.
	Subtrace int
	// Host and User carry the per-subtrace-offset host and user IDs, kept
	// disjoint across subtraces as in the paper's scaling methodology.
	Host int
	User int
}

// Result is the outcome of one Record on either engine: core.LookupResult,
// proto.LookupResult and ghba.Result are all this type.
type Result struct {
	// Path is the operated-on file path.
	Path string
	// Home is the MDS holding the metadata (-1 when not found). For a
	// delete it is the pre-delete home.
	Home int
	// Found reports whether the file exists (for a delete: existed).
	Found bool
	// Level is the hierarchy level that served a lookup: 1 (LRU array),
	// 2 (local segment array), 3 (group multicast), 4 (global multicast).
	// Pure mutations report 0.
	Level int
	// Latency is the end-to-end client-observed latency: simulated on the
	// simulator; on the prototype the wall-clock duration of the vector the
	// operation travelled in, divided by its length — the operation's own
	// for Lookup/Apply (a vector of one), an equal share for ApplyBatch.
	Latency time.Duration
	// ServerTime is the busy time consumed at the entry MDS, the quantity
	// the simulator's queuing model accumulates. The prototype measures no
	// such thing and leaves it zero.
	ServerTime time.Duration
}
