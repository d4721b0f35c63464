// Package proto implements the paper's Section 5 prototype: metadata
// servers as real TCP daemons (one rpcnet server each on a loopback port),
// exchanging genuine socket traffic for queries, verification, replica
// installation and reconfiguration, so lookup latencies include the real
// network stack (Fig 14). Every daemon runs in the coordinator's process:
// Start launches them, and bulk seeding, Populate and the ground-truth
// checks read their nodes in process rather than over the wire. Reconfiguration runs the
// plan internal/group computes — the same plan the simulator runs — and
// reports that plan's cost (Fig 15).
//
// The coordinator (Cluster) drives the multi-level query on behalf of the
// entry MDS — the same messages a server-driven implementation would send,
// issued from the client side for simplicity — and keeps the group layout
// (who holds which replica), which routes every replica update, as the
// simulator's does. Its ground truth of which daemon homes each file is the
// simulator's too: internal/homeindex's 8-byte {tag, home} cells, a tag
// match confirmed by the home daemon's store — in process for HomeOf and the
// checkers, by verify_batch when a create meets a same-tag cell — and moved
// only once a daemon's mutate_batch reply says the mutation applied. It has
// one walk (lookupVector) and one mutation sender (mutateRun), both over
// vectors: Lookup and Apply run them over a vector of one, ApplyBatch over a
// whole window.
//
// The coordinator speaks rpcnet's classic frames — one call at a time per
// connection — through an rpcnet.Pool per daemon, so concurrent calls to one
// daemon ride parallel sockets. A path vector frames each path's length as a
// uint16, so the coordinator refuses paths over 65,535 bytes.
//
// Each daemon (NodeServer) owns its L1 array, which learns lazily: the
// coordinator keeps each daemon's backlog of confirmed lookups, carried by
// the next lookup_batch entering there ahead of its paths. Under a byte
// budget a daemon runs the simulator's memory model over its segment array.
package proto

import (
	"encoding/binary"
	"fmt"

	"ghba/internal/wal"
	"ghba/internal/wire"
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
	opLookupBatch                       // observations, then paths → per path: L1 hits + L2 hits (entry leg)
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
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(paths)))
	for _, p := range paths {
		buf = wire.AppendString16(buf, p)
	}
	return buf
}

// decodePaths parses a path vector. It refuses bytes after the last path: a
// frame that carries more than it declares was not written by encodePaths.
func decodePaths(data []byte) ([]string, error) {
	r := wire.NewReader(data)
	paths := readPaths(&r)
	if err := r.Done("path vector"); err != nil {
		return nil, fmt.Errorf("proto: %w", err)
	}
	return paths, nil
}

// readPaths reads one path vector from r, refusing a count the bytes
// cannot carry.
func readPaths(r *wire.Reader) []string {
	paths := make([]string, r.Count(2))
	for i := range paths {
		paths[i] = r.String16()
	}
	return paths
}

// decodeHitsVec parses exactly n consecutive hit lists (the lookup/member
// batch response bodies), each count uint16, then one uint32 MDS ID per hit.
func decodeHitsVec(data []byte, n int) ([][]int, error) {
	r := wire.NewReader(data)
	out := make([][]int, n)
	for i := range out {
		hits := make([]int, r.Count16(4))
		for j := range hits {
			hits[j] = int(r.U32())
		}
		out[i] = hits
	}
	if err := r.Done("hit lists"); err != nil {
		return nil, fmt.Errorf("proto: %w", err)
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
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, size), incarnation)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = wire.AppendString16(append(buf, r.Op), r.Path)
	}
	return buf
}

// decodeMutations parses a mutation batch. It refuses an unknown kind, a
// count the bytes do not carry and bytes after the last record: the daemon
// logs what it decodes, so nothing it half-understood may reach the WAL.
func decodeMutations(data []byte) (incarnation uint64, recs []wal.Record, err error) {
	r := wire.NewReader(data)
	incarnation = r.U64()
	recs = make([]wal.Record, r.Count(3))
	for i := range recs {
		recs[i] = wal.Record{Op: r.U8(), Path: r.String16()}
	}
	if err = r.Done("mutation batch"); err != nil {
		return 0, nil, fmt.Errorf("proto: %w", err)
	}
	for i, rec := range recs {
		if rec.Op != wal.OpCreate && rec.Op != wal.OpDelete {
			return 0, nil, fmt.Errorf("proto: mutation %d has unknown kind %d", i, rec.Op)
		}
	}
	return incarnation, recs, nil
}

// decodeMutateResp parses an opMutateBatch response for n records: one
// existence byte per record — 1 for every create, and for a delete whether
// the daemon held the path, which is how the coordinator learns that a
// delete found its file and drops the file's home-index cell — then whether
// the batch's creates left the filter past the XOR-delta ship threshold,
// then whether a delete rebuilt the filter (which replaces it wholesale and
// must ship). Any byte other than 0 or 1 is refused.
func decodeMutateResp(data []byte, n int) (exists []bool, crossed, rebuilt bool, err error) {
	if len(data) != n+2 {
		return nil, false, false, fmt.Errorf("proto: mutate batch response wants %d bytes, got %d", n+2, len(data))
	}
	if data[n] > 1 || data[n+1] > 1 {
		return nil, false, false, fmt.Errorf("proto: mutate batch flags are bytes %d and %d, want 0 or 1", data[n], data[n+1])
	}
	exists, err = decodeBools(data[:n], n)
	if err != nil {
		return nil, false, false, fmt.Errorf("proto: mutate batch existence: %w", err)
	}
	return exists, data[n] == 1, data[n+1] == 1, nil
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
	r := wire.NewReader(data)
	info := HeartbeatInfo{ID: int(r.U32()), Files: r.U64(), WALRecords: r.U64()}
	if err := r.Done("heartbeat response"); err != nil {
		return HeartbeatInfo{}, fmt.Errorf("proto: %w", err)
	}
	return info, nil
}

// observation is one (home, path) L1 learning record.
type observation struct {
	home int
	path string
}

// encodeLookupRequest serializes an entry leg's request: the observations
// the daemon applies to its L1 array first, then the paths it answers for.
func encodeLookupRequest(obs []observation, paths []string) []byte {
	return append(encodeObservations(obs), encodePaths(paths)...)
}

// encodeObservations serializes the request's prefix: count uint32, then
// per record home uint32 | pathLen uint16 | path.
func encodeObservations(obs []observation) []byte {
	size := 4
	for _, o := range obs {
		size += 4 + 2 + len(o.path)
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(obs)))
	for _, o := range obs {
		buf = wire.AppendString16(binary.BigEndian.AppendUint32(buf, uint32(o.home)), o.path)
	}
	return buf
}

// decodeLookupRequest parses an entry leg's request with one reader: the
// observations, then the path vector. Like decodePaths it refuses a count
// the bytes cannot carry and bytes after the last path.
func decodeLookupRequest(data []byte) ([]observation, []string, error) {
	r := wire.NewReader(data)
	obs := decodeObservations(&r)
	paths := readPaths(&r)
	if err := r.Done("lookup request"); err != nil {
		return nil, nil, fmt.Errorf("proto: %w", err)
	}
	return obs, paths, nil
}

// decodeObservations reads the request's prefix from r.
func decodeObservations(r *wire.Reader) []observation {
	obs := make([]observation, r.Count(6))
	for i := range obs {
		obs[i] = observation{home: int(r.U32()), path: r.String16()}
	}
	return obs
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

// encodeOriginPayload prefixes a payload with an origin MDS ID.
func encodeOriginPayload(origin int, payload []byte) []byte {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(origin))
	copy(buf[4:], payload)
	return buf
}

// decodeOriginPayload splits an origin-prefixed payload.
func decodeOriginPayload(data []byte) (int, []byte, error) {
	r := wire.NewReader(data)
	origin, body := int(r.U32()), r.Rest()
	if err := r.Done("origin prefix"); err != nil {
		return 0, nil, fmt.Errorf("proto: %w", err)
	}
	return origin, body, nil
}
