// Package proto implements the paper's Section 5 prototype: metadata
// servers as real TCP daemons (one rpcnet server each, loopback in tests and
// examples, any address in cmd/mdsd), exchanging genuine socket traffic for
// queries, verification, replica installation and reconfiguration, so lookup
// latencies include the real network stack (Fig 14). Reconfiguration runs the
// plan internal/group computes — the same plan the simulator runs — and
// reports that plan's cost (Fig 15).
//
// The coordinator (Cluster) drives the multi-level query on behalf of the
// entry MDS — the same messages a server-driven implementation would send,
// issued from the client side for simplicity — and keeps the group layout
// (who holds which replica), which routes every replica update, as the
// simulator's does. It has
// one walk (lookupVector) and one mutation sender (mutateRun), both over
// vectors: Lookup and Apply run them over a vector of one, ApplyBatch over a
// whole window.
//
// The coordinator speaks rpcnet's classic frames — one call at a time per
// connection — through an rpcnet.Pool per daemon, so concurrent calls to one
// daemon ride parallel sockets. A path vector frames each path's length as a
// uint16, so the coordinator refuses paths over 65,535 bytes.
package proto

import (
	"encoding/binary"
	"fmt"

	"ghba/internal/wal"
)

// RPC message types. Every namespace operation travels as a path vector —
// one frame carries however many paths the coordinator has for that daemon in
// the round, a vector of one for a single Lookup or Apply — so syscalls, frame
// headers and digest computation amortize across the vector, and each
// question has exactly one wire form. Nothing durable stores an opcode (WAL
// records carry wal.Op*), so the numbering is free to stay dense.
const (
	opInstallReplica   uint8 = iota + 1 // origin + filter → ack
	opDropReplica                       // origin → filter bytes
	opShipFilter                        // (empty) → origin's current filter, recorded as last shipped
	opFetchShipped                      // (empty) → the filter origin last shipped; its drift tracking untouched
	opObserveBatch                      // batched L1 observations → ack
	opLookupBatch                       // paths → per path: L1 hits + L2 hits (entry leg)
	opQueryMemberBatch                  // paths → per path: L2 hits (group multicast leg)
	opVerifyBatch                       // paths → per path: 1/0 authoritative answer
	opHasLocalBatch                     // paths → per path: 1/0 local-filter + store check (L4 leg)
	opMutateBatch                       // incarnation + (kind, path) records in op order → per record existence byte, then crossed and rebuilt bytes

	// opHeartbeat is the failure detector's liveness probe. The response
	// carries a health report — id, homed files, WAL position — so a probe
	// that reaches the wrong daemon after an address reuse is detectable.
	opHeartbeat // (empty) → id uint32 | files uint64 | walRecords uint64
)

// opNames labels each RPC type for the per-op counters (Cluster.RPCCounts);
// index = opcode.
var opNames = [...]string{
	opInstallReplica:   "install_replica",
	opDropReplica:      "drop_replica",
	opShipFilter:       "ship_filter",
	opFetchShipped:     "fetch_shipped",
	opObserveBatch:     "observe_batch",
	opLookupBatch:      "lookup_batch",
	opQueryMemberBatch: "query_member_batch",
	opVerifyBatch:      "verify_batch",
	opHasLocalBatch:    "has_local_batch",
	opMutateBatch:      "mutate_batch",
	opHeartbeat:        "heartbeat",
}

// opName returns the label of one RPC type.
func opName(op uint8) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op_%d", op)
}

// encodePaths serializes a path vector: count uint32, then per path
// len uint16 | bytes. Paths longer than maxPathBytes do not fit the length
// field; the coordinator's entry points refuse them (checkPaths) before any
// reaches an encoder.
func encodePaths(paths []string) []byte {
	size := 4
	for _, p := range paths {
		size += 2 + len(p)
	}
	buf := make([]byte, 0, size)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(paths)))
	buf = append(buf, tmp[:4]...)
	for _, p := range paths {
		binary.BigEndian.PutUint16(tmp[:2], uint16(len(p)))
		buf = append(buf, tmp[:2]...)
		buf = append(buf, p...)
	}
	return buf
}

// decodePaths parses a path vector. It refuses bytes after the last path: a
// frame that carries more than it declares was not written by encodePaths.
func decodePaths(data []byte) ([]string, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("proto: truncated path vector")
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	// Each path costs at least its 2-byte length prefix; reject counts the
	// remaining bytes cannot possibly carry before allocating for them.
	if n > len(data)/2 {
		return nil, fmt.Errorf("proto: path vector declares %d paths in %d bytes", n, len(data))
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < 2 {
			return nil, fmt.Errorf("proto: truncated path %d", i)
		}
		plen := int(binary.BigEndian.Uint16(data))
		data = data[2:]
		if len(data) < plen {
			return nil, fmt.Errorf("proto: truncated path %d body", i)
		}
		out = append(out, string(data[:plen]))
		data = data[plen:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("proto: %d bytes after %d paths", len(data), n)
	}
	return out, nil
}

// decodeHitsVec parses exactly n consecutive hit lists (the lookup/member
// batch response bodies).
func decodeHitsVec(data []byte, n int) ([][]int, error) {
	out := make([][]int, n)
	var err error
	for i := 0; i < n; i++ {
		if out[i], data, err = decodeHits(data); err != nil {
			return nil, fmt.Errorf("proto: hit list %d: %w", i, err)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("proto: %d bytes after %d hit lists", len(data), n)
	}
	return out, nil
}

// encodeBools packs one byte per answer.
func encodeBools(bs []bool) []byte {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

// decodeBools parses an n-answer bool vector. Each answer byte must be 0 or
// 1: anything else was not written by a daemon.
func decodeBools(data []byte, n int) ([]bool, error) {
	if len(data) != n {
		return nil, fmt.Errorf("proto: bool vector wants %d bytes, got %d", n, len(data))
	}
	out := make([]bool, n)
	for i, b := range data {
		if b > 1 {
			return nil, fmt.Errorf("proto: answer %d is byte %d, want 0 or 1", i, b)
		}
		out[i] = b == 1
	}
	return out, nil
}

// encodeMutations serializes a mutation batch: the incarnation of the
// daemon its claims were made against (uint64), count uint32, then per
// record kind uint8 (wal.OpCreate or wal.OpDelete) | len uint16 | path
// bytes. The kind byte is the WAL's own op, so the daemon logs exactly what
// it received.
func encodeMutations(incarnation uint64, recs []wal.Record) []byte {
	size := 8 + 4
	for _, r := range recs {
		size += 1 + 2 + len(r.Path)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, incarnation)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = append(buf, r.Op)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Path)))
		buf = append(buf, r.Path...)
	}
	return buf
}

// decodeMutations parses a mutation batch. It refuses an unknown kind, a
// count the bytes do not carry and bytes after the last record: the daemon
// logs what it decodes, so nothing it half-understood may reach the WAL.
func decodeMutations(data []byte) (incarnation uint64, recs []wal.Record, err error) {
	if len(data) < 12 {
		return 0, nil, fmt.Errorf("proto: truncated mutation batch")
	}
	incarnation = binary.BigEndian.Uint64(data)
	n := int(binary.BigEndian.Uint32(data[8:]))
	data = data[12:]
	// Each record costs at least its kind byte and 2-byte length prefix.
	if n > len(data)/3 {
		return 0, nil, fmt.Errorf("proto: mutation batch declares %d records in %d bytes", n, len(data))
	}
	recs = make([]wal.Record, n)
	for i := range recs {
		if len(data) < 3 {
			return 0, nil, fmt.Errorf("proto: truncated mutation %d", i)
		}
		op, plen := data[0], int(binary.BigEndian.Uint16(data[1:]))
		if op != wal.OpCreate && op != wal.OpDelete {
			return 0, nil, fmt.Errorf("proto: mutation %d has unknown kind %d", i, op)
		}
		data = data[3:]
		if len(data) < plen {
			return 0, nil, fmt.Errorf("proto: truncated mutation %d path", i)
		}
		recs[i] = wal.Record{Op: op, Path: string(data[:plen])}
		data = data[plen:]
	}
	if len(data) != 0 {
		return 0, nil, fmt.Errorf("proto: %d bytes after %d mutations", len(data), n)
	}
	return incarnation, recs, nil
}

// decodeMutateResp parses an opMutateBatch response for n records: one
// existence byte per record (the coordinator's homes map already settled
// existence, so they go unread), then whether the batch's creates left the
// filter past the XOR-delta ship threshold, then whether a delete rebuilt the
// filter (which replaces it wholesale and must ship). Either flag byte other
// than 0 or 1 is refused.
func decodeMutateResp(data []byte, n int) (crossed, rebuilt bool, err error) {
	if len(data) != n+2 {
		return false, false, fmt.Errorf("proto: mutate batch response wants %d bytes, got %d", n+2, len(data))
	}
	if data[n] > 1 || data[n+1] > 1 {
		return false, false, fmt.Errorf("proto: mutate batch flags are bytes %d and %d, want 0 or 1", data[n], data[n+1])
	}
	return data[n] == 1, data[n+1] == 1, nil
}

// HeartbeatInfo is the health report an opHeartbeat response carries.
type HeartbeatInfo struct {
	// ID is the responding daemon's MDS identifier, echoed so the detector
	// can spot a probe answered by a stranger on a reused address.
	ID int
	// Files is the number of files homed at the daemon.
	Files uint64
	// WALRecords is the daemon's WAL append count since its last snapshot
	// (zero when the daemon runs without a WAL).
	WALRecords uint64
}

// encodeHeartbeatResp serializes a health report.
func encodeHeartbeatResp(info HeartbeatInfo) []byte {
	buf := make([]byte, 0, 20)
	buf = binary.BigEndian.AppendUint32(buf, uint32(info.ID))
	buf = binary.BigEndian.AppendUint64(buf, info.Files)
	buf = binary.BigEndian.AppendUint64(buf, info.WALRecords)
	return buf
}

// decodeHeartbeatResp parses a health report.
func decodeHeartbeatResp(data []byte) (HeartbeatInfo, error) {
	if len(data) != 20 {
		return HeartbeatInfo{}, fmt.Errorf("proto: heartbeat response wants 20 bytes, got %d", len(data))
	}
	return HeartbeatInfo{
		ID:         int(binary.BigEndian.Uint32(data)),
		Files:      binary.BigEndian.Uint64(data[4:]),
		WALRecords: binary.BigEndian.Uint64(data[12:]),
	}, nil
}

// observation is one (home, path) L1 learning record.
type observation struct {
	home int
	path string
}

// encodeObservations serializes a batch: count uint32, then per record
// origin uint32 | pathLen uint16 | path.
func encodeObservations(obs []observation) []byte {
	size := 4
	for _, o := range obs {
		size += 4 + 2 + len(o.path)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(obs)))
	for _, o := range obs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(o.home))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(o.path)))
		buf = append(buf, o.path...)
	}
	return buf
}

// decodeObservations parses a batch. Like decodePaths it refuses a count the
// bytes cannot carry and bytes after the last record.
func decodeObservations(data []byte) ([]observation, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("proto: truncated observation batch")
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	// Each record costs at least its origin and 2-byte length prefix.
	if n > len(data)/6 {
		return nil, fmt.Errorf("proto: observation batch declares %d records in %d bytes", n, len(data))
	}
	out := make([]observation, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < 6 {
			return nil, fmt.Errorf("proto: truncated observation %d", i)
		}
		home := int(binary.BigEndian.Uint32(data))
		plen := int(binary.BigEndian.Uint16(data[4:]))
		data = data[6:]
		if len(data) < plen {
			return nil, fmt.Errorf("proto: truncated path in observation %d", i)
		}
		out = append(out, observation{home: home, path: string(data[:plen])})
		data = data[plen:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("proto: %d bytes after %d observations", len(data), n)
	}
	return out, nil
}

// appendHits appends the wire form of an MDS-ID hit list to dst: count
// uint16, then one uint32 per ID.
func appendHits(dst []byte, hits []int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(hits)))
	for _, h := range hits {
		dst = binary.BigEndian.AppendUint32(dst, uint32(h))
	}
	return dst
}

// decodeHits parses a hit list, returning the remaining bytes.
func decodeHits(data []byte) ([]int, []byte, error) {
	if len(data) < 2 {
		return nil, nil, fmt.Errorf("proto: truncated hit list")
	}
	n := int(binary.BigEndian.Uint16(data))
	if len(data) < 2+4*n {
		return nil, nil, fmt.Errorf("proto: hit list wants %d entries, have %d bytes", n, len(data)-2)
	}
	hits := make([]int, n)
	for i := range hits {
		hits[i] = int(binary.BigEndian.Uint32(data[2+4*i:]))
	}
	return hits, data[2+4*n:], nil
}

// encodeOriginPayload prefixes a payload with an origin MDS ID.
func encodeOriginPayload(origin int, payload []byte) []byte {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(origin))
	copy(buf[4:], payload)
	return buf
}

// decodeOriginPayload splits an origin-prefixed payload.
func decodeOriginPayload(data []byte) (int, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("proto: truncated origin prefix")
	}
	return int(binary.BigEndian.Uint32(data)), data[4:], nil
}
