package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. The traced run records
// spans from the benchmark's own files, around its calls into each layer's
// public entry points; they stay in memory until the run ends.
type span struct {
	// Name is the entry point called, e.g. "core.Cluster.LookupWith".
	Name string `json:"name"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index (line number after the header) of the span this
	// one belongs to: a rung's pass for a call, the pass of the rung above
	// for a pass, -1 for the top rung.
	Parent int32 `json:"parent"`
	// Seq is the sequence number, within the rung's stream, of the first
	// operation the span covers.
	Seq int32 `json:"seq"`
	// Calls is how many consecutive calls the span covers: 1 where a call
	// takes microseconds, a batch where it takes tens of nanoseconds and
	// two clock reads per call would be most of the measurement.
	Calls int32 `json:"calls"`
}

// spanLog is the in-memory trace of one traced run.
type spanLog struct {
	workload string
	seed     int64
	t0       time.Time
	spans    []span
}

func newSpanLog(workload string, seed int64) *spanLog {
	return &spanLog{workload: workload, seed: seed, t0: time.Now()}
}

// now is the trace clock.
func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// open starts a pass span and returns its index; close ends it.
func (l *spanLog) open(name string, parent int32) int32 {
	l.spans = append(l.spans, span{Name: name, Start: l.now(), Parent: parent})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(id int32) { l.spans[id].End = l.now() }

// add appends one finished call (or batch) span.
func (l *spanLog) add(name string, parent int32, seq int, calls int, start, end int64) {
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent, Seq: int32(seq), Calls: int32(calls)})
}

// timed runs fn — calls consecutive calls into one entry point — inside a
// span and returns its duration in nanoseconds.
func (l *spanLog) timed(name string, parent int32, seq, calls int, fn func()) int64 {
	start := l.now()
	fn()
	end := l.now()
	l.add(name, parent, seq, calls, start, end)
	return end - start
}

// write dumps the trace as JSON lines: one header, then one span per line,
// each carrying the workload it belongs to.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    int    `json:"spans"`
	}{l.workload, l.seed, len(l.spans)})
	type line struct {
		span
		Workload string `json:"workload"`
	}
	for i := 0; i < len(l.spans) && err == nil; i++ {
		err = enc.Encode(line{l.spans[i], l.workload})
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
