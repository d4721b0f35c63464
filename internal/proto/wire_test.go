package proto

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"ghba/internal/bloom"
	"ghba/internal/mds"
	"ghba/internal/trace"
	"ghba/internal/wal"
)

// TestWireRoundTrip pins every opcode's wire format: each entry encodes the
// request payload the client sends for that op and decodes the response body
// the daemon returns, using the same codec helpers both sides use, and
// asserts the decode inverts the encode. The table must cover every opcode:
// the sweep over opNames at the end fails for one that ships without an
// entry here.
func TestWireRoundTrip(t *testing.T) {
	samplePaths := []string{"", "/a", "/usr/share/dict/words", string(bytes.Repeat([]byte{0xff}, 300))}
	sampleHits := [][]int{{}, {0}, {3, 1, 4, 1, 5}, {1 << 30}}

	hitsTrip := func(t *testing.T, lists [][]int) {
		var wire []byte
		for _, hits := range lists {
			wire = appendHits(wire, hits)
		}
		got, err := decodeHitsVec(wire, len(lists))
		if err != nil {
			t.Fatalf("decodeHitsVec: %v", err)
		}
		for i, hits := range lists {
			want := hits
			if len(want) == 0 {
				want = []int{}
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("hit list %d: got %v, want %v", i, got[i], want)
			}
		}
	}
	pathsTrip := func(t *testing.T) []string {
		got, err := decodePaths(encodePaths(samplePaths))
		if err != nil {
			t.Fatalf("decodePaths: %v", err)
		}
		if !reflect.DeepEqual(got, samplePaths) {
			t.Fatalf("paths: got %q, want %q", got, samplePaths)
		}
		if _, err := decodePaths(append(encodePaths(samplePaths), 0)); err == nil {
			t.Fatal("decodePaths accepted a trailing byte")
		}
		return got
	}
	boolsTrip := func(t *testing.T) {
		answers := []bool{true, false, false, true}
		got, err := decodeBools(encodeBools(answers), len(answers))
		if err != nil {
			t.Fatalf("decodeBools: %v", err)
		}
		if !reflect.DeepEqual(got, answers) {
			t.Fatalf("bools: got %v, want %v", got, answers)
		}
		// A corrupt answer byte fails the call instead of reading as false.
		for name, bad := range map[string][]byte{
			"answer byte 2":    {1, 0, 2, 1},
			"answer byte 0xff": {0xff, 0, 0, 1},
			"one byte short":   {1, 0, 0},
			"trailing byte":    {1, 0, 0, 1, 0},
		} {
			if got, err := decodeBools(bad, len(answers)); err == nil {
				t.Errorf("%s: decoded as %v", name, got)
			}
		}
	}
	originTrip := func(t *testing.T, origin int, body []byte) {
		gotOrigin, gotBody, err := decodeOriginPayload(encodeOriginPayload(origin, body))
		if err != nil {
			t.Fatalf("decodeOriginPayload: %v", err)
		}
		if gotOrigin != origin || !bytes.Equal(gotBody, body) {
			t.Fatalf("origin payload: got (%d, %q), want (%d, %q)", gotOrigin, gotBody, origin, body)
		}
	}

	cases := []struct {
		op   uint8
		trip func(t *testing.T)
	}{
		{opInstallReplica, func(t *testing.T) {
			originTrip(t, 7, []byte{0xde, 0xad, 0xbe, 0xef})
		}},
		{opDropReplica, func(t *testing.T) {
			originTrip(t, 0, nil)
		}},
		{opShipFilter, func(t *testing.T) {
			// Empty request; the response is a marshalled filter, covered by
			// the bloom package's own MarshalBinary round-trip tests. The
			// wire layer adds nothing beyond the opcode frame.
		}},
		{opFetchShipped, func(t *testing.T) {
			// The same wire form as opShipFilter; what differs is the daemon's
			// side effect, pinned by TestFetchShippedLeavesDriftAlone.
		}},
		{opObserveBatch, func(t *testing.T) {
			obs := []observation{{home: 2, path: "/a"}, {home: 9, path: ""}, {home: 1 << 20, path: "/b/c"}}
			wire := encodeObservations(obs)
			got, err := decodeObservations(wire)
			if err != nil {
				t.Fatalf("decodeObservations: %v", err)
			}
			if !reflect.DeepEqual(got, obs) {
				t.Fatalf("observations: got %v, want %v", got, obs)
			}
			// The count is a uint32 in the first four bytes.
			countLong, countShort := bytes.Clone(wire), bytes.Clone(wire)
			countLong[3]++
			countShort[3]--
			for name, bad := range map[string][]byte{
				"count one long":  countLong,
				"count one short": countShort,
				"trailing byte":   append(bytes.Clone(wire), 0),
				"truncated":       wire[:len(wire)-1],
			} {
				if got, err := decodeObservations(bad); err == nil {
					t.Errorf("%s: decoded as %v", name, got)
				}
			}
		}},
		{opLookupBatch, func(t *testing.T) {
			paths := pathsTrip(t)
			// Response: two hit lists per path (L1 then L2).
			var lists [][]int
			for range paths {
				lists = append(lists, sampleHits[2], sampleHits[0])
			}
			hitsTrip(t, lists)
		}},
		{opQueryMemberBatch, func(t *testing.T) {
			paths := pathsTrip(t)
			lists := make([][]int, len(paths))
			for i := range paths {
				lists[i] = sampleHits[i%len(sampleHits)]
			}
			hitsTrip(t, lists)
		}},
		{opVerifyBatch, func(t *testing.T) {
			pathsTrip(t)
			boolsTrip(t)
		}},
		{opHasLocalBatch, func(t *testing.T) {
			pathsTrip(t)
			boolsTrip(t)
		}},
		{opMutateBatch, func(t *testing.T) {
			// Request: records in op order, each kind its WAL op, the same
			// path as often as the round touches it.
			recs := []wal.Record{
				{Op: wal.OpCreate, Path: samplePaths[1]},
				{Op: wal.OpDelete, Path: samplePaths[1]},
				{Op: wal.OpCreate, Path: samplePaths[0]},
				{Op: wal.OpDelete, Path: samplePaths[3]},
				{Op: wal.OpCreate, Path: samplePaths[2]},
			}
			const incarnation = 1<<40 + 3
			wire := encodeMutations(incarnation, recs)
			gotInc, got, err := decodeMutations(wire)
			if err != nil {
				t.Fatalf("decodeMutations: %v", err)
			}
			if gotInc != incarnation || !reflect.DeepEqual(got, recs) {
				t.Fatalf("mutations: got %d %v, want %d %v", gotInc, got, incarnation, recs)
			}
			// The daemon logs what it decodes, so the decoder takes nothing
			// it half understands.
			unknownKind := bytes.Clone(wire)
			unknownKind[12] = 9
			countLong, countShort := bytes.Clone(wire), bytes.Clone(wire)
			countLong[11]++
			countShort[11]--
			for name, bad := range map[string][]byte{
				"unknown kind":    unknownKind,
				"count one long":  countLong,
				"count one short": countShort,
				"trailing byte":   append(bytes.Clone(wire), 0),
				"truncated":       wire[:len(wire)-1],
			} {
				if _, _, err := decodeMutations(bad); err == nil {
					t.Errorf("%s: decoded", name)
				}
			}
			// Response: one existence byte per record, then the crossed and
			// rebuilt flags.
			for _, flags := range [][2]bool{{true, false}, {false, true}, {true, true}, {false, false}} {
				resp := make([]byte, len(recs)+2)
				resp[0] = 1
				if flags[0] {
					resp[len(recs)] = 1
				}
				if flags[1] {
					resp[len(recs)+1] = 1
				}
				crossed, rebuilt, err := decodeMutateResp(resp, len(recs))
				if err != nil {
					t.Fatalf("decodeMutateResp: %v", err)
				}
				if crossed != flags[0] || rebuilt != flags[1] {
					t.Fatalf("flags %v decoded as (%v, %v)", flags, crossed, rebuilt)
				}
			}
			for _, flags := range [][2]byte{{2, 0}, {0, 2}, {0xff, 1}} {
				resp := append(make([]byte, len(recs)), flags[0], flags[1])
				if crossed, rebuilt, err := decodeMutateResp(resp, len(recs)); err == nil {
					t.Errorf("flag bytes %v decoded as (%v, %v)", flags, crossed, rebuilt)
				}
			}
		}},
		{opHeartbeat, func(t *testing.T) {
			// Empty request; the response is a fixed-width health report.
			for _, info := range []HeartbeatInfo{
				{},
				{ID: 7, Files: 123, WALRecords: 456},
				{ID: 1 << 30, Files: 1 << 60, WALRecords: 1},
			} {
				got, err := decodeHeartbeatResp(encodeHeartbeatResp(info))
				if err != nil {
					t.Fatalf("decodeHeartbeatResp: %v", err)
				}
				if got != info {
					t.Fatalf("heartbeat %+v decoded as %+v", info, got)
				}
			}
			if _, err := decodeHeartbeatResp([]byte{1, 2, 3}); err == nil {
				t.Fatal("truncated heartbeat response accepted")
			}
		}},
	}

	seen := make(map[uint8]bool)
	for _, tc := range cases {
		if seen[tc.op] {
			t.Fatalf("opcode %s appears twice in the round-trip table", opName(tc.op))
		}
		seen[tc.op] = true
		t.Run(opName(tc.op), func(t *testing.T) {
			if opName(tc.op) == "" || opName(tc.op)[:3] == "op_" {
				t.Fatalf("opcode %d missing from opNames", tc.op)
			}
			tc.trip(t)
		})
	}
	// Every slot in opNames must have a table entry above; a hole here means
	// an opcode shipped without a pinned wire format.
	for op := 1; op < len(opNames); op++ {
		if opNames[op] != "" && !seen[uint8(op)] {
			t.Errorf("opcode %s has no round-trip case", opNames[op])
		}
	}
	// A round of one kind carries what create_batch and delete_batch carried
	// before they folded into mutate_batch: the create row's answer is the
	// crossed flag, the delete row's the existence bytes and the rebuilt flag.
	for _, kind := range oneKindRounds {
		t.Run(kind.name, func(t *testing.T) {
			recs := make([]wal.Record, len(samplePaths))
			for i, p := range samplePaths {
				recs[i] = wal.Record{Op: kind.op, Path: p}
			}
			_, got, err := decodeMutations(encodeMutations(0, recs))
			if err != nil {
				t.Fatalf("decodeMutations: %v", err)
			}
			if !reflect.DeepEqual(got, recs) {
				t.Fatalf("mutations: got %v, want %v", got, recs)
			}
			flagAt := len(recs)
			if kind.op == wal.OpDelete {
				flagAt++
			}
			for _, flag := range []bool{true, false} {
				resp := make([]byte, len(recs)+2)
				resp[0] = 1
				if flag {
					resp[flagAt] = 1
				}
				crossed, rebuilt, err := decodeMutateResp(resp, len(recs))
				if err != nil {
					t.Fatalf("decodeMutateResp: %v", err)
				}
				want := [2]bool{flag, false}
				if kind.op == wal.OpDelete {
					want = [2]bool{false, flag}
				}
				if got := [2]bool{crossed, rebuilt}; got != want {
					t.Fatalf("flag %v decoded as (crossed, rebuilt) %v, want %v", flag, got, want)
				}
			}
		})
	}
}

// oneKindRounds names a mutate_batch round that carries a single kind after
// the opcode each such round had before create and delete shared one.
var oneKindRounds = []struct {
	name string
	op   uint8
}{{"create_batch", wal.OpCreate}, {"delete_batch", wal.OpDelete}}

// minimalRequests builds one well-formed request per opcode, and the replica
// whose install its opInstallReplica request carries — what opDropReplica's
// request asks a daemon holding it to give back.
func minimalRequests(tb testing.TB) (map[uint8][]byte, *bloom.Filter) {
	tb.Helper()
	paths := encodePaths([]string{"/p"})
	replica, err := bloom.NewForCapacity(2_000, 16)
	if err != nil {
		tb.Fatal(err)
	}
	wire, err := replica.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return map[uint8][]byte{
		opInstallReplica:   encodeOriginPayload(1, wire),
		opDropReplica:      encodeOriginPayload(1, nil),
		opShipFilter:       nil,
		opFetchShipped:     nil,
		opObserveBatch:     encodeObservations([]observation{{home: 1, path: "/p"}}),
		opLookupBatch:      paths,
		opQueryMemberBatch: paths,
		opVerifyBatch:      paths,
		opHasLocalBatch:    paths,
		opMutateBatch:      encodeMutations(0, []wal.Record{{Op: wal.OpCreate, Path: "/p"}, {Op: wal.OpDelete, Path: "/p"}}),
		opHeartbeat:        nil,
	}, replica
}

// TestEveryOpcodeDispatches pins the daemon half of the opcode table: every
// opcode with a name has a dispatch arm that accepts a minimal well-formed
// request. An opcode added to opNames without a case in handle (or without a
// request here) fails it.
func TestEveryOpcodeDispatches(t *testing.T) {
	requests, replica := minimalRequests(t)
	for op := 1; op < len(opNames); op++ {
		t.Run(opName(uint8(op)), func(t *testing.T) {
			req, ok := requests[uint8(op)]
			if !ok {
				t.Fatalf("opcode %s has no minimal request in this test", opName(uint8(op)))
			}
			node, err := mds.NewNode(0, testOptions(1, 1).Node)
			if err != nil {
				t.Fatal(err)
			}
			node.InstallReplica(1, replica) // what opDropReplica gives back
			ns := &NodeServer{node: node}
			if _, err := ns.handle(uint8(op), req); err != nil {
				t.Fatalf("fresh daemon refused a well-formed %s: %v", opName(uint8(op)), err)
			}
		})
	}
	// A round of one kind dispatches too: a create answers that the path
	// exists, a delete of a path the fresh daemon never had that it did not.
	for _, kind := range oneKindRounds {
		t.Run(kind.name, func(t *testing.T) {
			node, err := mds.NewNode(0, testOptions(1, 1).Node)
			if err != nil {
				t.Fatal(err)
			}
			ns := &NodeServer{node: node}
			resp, err := ns.handle(opMutateBatch, encodeMutations(0, []wal.Record{{Op: kind.op, Path: "/p"}}))
			if err != nil {
				t.Fatalf("fresh daemon refused a one-record %s round: %v", kind.name, err)
			}
			want := []byte{0, 0, 0}
			if kind.op == wal.OpCreate {
				want[0] = 1
			}
			if !bytes.Equal(resp, want) {
				t.Fatalf("%s round answered %v, want %v", kind.name, resp, want)
			}
		})
	}
}

// TestFetchShippedLeavesDriftAlone pins what separates the two filter reads:
// opFetchShipped answers with the snapshot the last ship handed out and
// leaves the daemon's XOR-delta drift where it was, while opShipFilter answers
// with the current filter and zeroes the drift.
func TestFetchShippedLeavesDriftAlone(t *testing.T) {
	node, err := mds.NewNode(0, testOptions(1, 1).Node)
	if err != nil {
		t.Fatal(err)
	}
	ns := &NodeServer{node: node}
	shippedBefore, err := node.Shipped().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		node.AddFile("/drift/f" + strconv.Itoa(i))
	}
	drift := node.DeltaBits()
	if drift == 0 {
		t.Fatal("setup: twenty creates moved no bit")
	}
	got, err := ns.handle(opFetchShipped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shippedBefore) {
		t.Error("opFetchShipped did not answer with the last-shipped snapshot")
	}
	if node.DeltaBits() != drift {
		t.Errorf("opFetchShipped moved the drift from %d to %d", drift, node.DeltaBits())
	}
	current, err := ns.handle(opShipFilter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(current, shippedBefore) || node.DeltaBits() != 0 {
		t.Errorf("opShipFilter: same bytes as before the creates, or drift %d left", node.DeltaBits())
	}
	if again, _ := ns.handle(opFetchShipped, nil); !bytes.Equal(again, current) {
		t.Error("opFetchShipped after a ship does not answer with what was shipped")
	}
}

// TestEveryOpcodeIsSent pins the coordinator half: one scripted scenario —
// mutations and lookups that resolve at every level, dispatched one record
// at a time and as one vector, a join, a split, a failover and a heartbeat —
// after which every opcode in opNames has crossed the wire at least once. An
// opcode nothing sends is a dispatch arm, a codec and a wire-format row kept
// for no caller.
func TestEveryOpcodeIsSent(t *testing.T) {
	ctx := context.Background()
	opts := testOptions(5, 3)
	opts.ShipBatch = 1
	opts.ObserveBatch = 1
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	live := make([]string, 40)
	for i := range live {
		live[i] = "/p/f" + strconv.Itoa(i)
	}
	c.Populate(live)

	// Creates, deletes, lookups of populated and of just-created paths
	// (replicas not yet shipped) and lookups of absent paths, so verifies,
	// the L3 group round and the L4 global round all fire.
	script := func(tag string) []trace.Record {
		var recs []trace.Record
		for i, p := range live {
			fresh := "/sent/" + tag + "/f" + strconv.Itoa(i)
			recs = append(recs,
				trace.Record{Op: trace.OpCreate, Path: fresh},
				trace.Record{Op: trace.OpStat, Path: fresh},
				trace.Record{Op: trace.OpStat, Path: p},
				trace.Record{Op: trace.OpStat, Path: "/absent/" + tag + "/f" + strconv.Itoa(i)})
			if i%2 == 0 {
				recs = append(recs, trace.Record{Op: trace.OpDelete, Path: fresh})
			}
		}
		return recs
	}
	rng := rand.New(rand.NewSource(1))
	for _, rec := range script("serial") {
		if _, err := c.ApplyWith(ctx, rng, rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ApplyBatch(ctx, rng, script("batch")); err != nil {
		t.Fatal(err)
	}

	numGroups := func() int { return len(c.Layout().Groups()) }
	var joined, split bool
	for i := 0; i < 4 && !(joined && split); i++ {
		before := numGroups()
		if _, _, err := c.AddMDS(ctx); err != nil {
			t.Fatal(err)
		}
		if numGroups() > before {
			split = true
		} else {
			joined = true
		}
	}
	if !joined || !split {
		t.Fatalf("four AddMDS calls: joined=%v split=%v, want both", joined, split)
	}
	if _, err := c.FailMDS(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Heartbeat(ctx, 1); err != nil {
		t.Fatal(err)
	}

	counts := c.RPCCounts()
	for op := 1; op < len(opNames); op++ {
		if counts[opNames[op]] == 0 {
			t.Errorf("opcode %s was never sent", opNames[op])
		}
	}
}

// FuzzPathVectorRoundTrip drives the batch path codec both ways: arbitrary
// bytes must never panic the decoder, and any vector the decoder accepts
// must re-encode to a decodable equal vector — and, since it refuses
// trailing bytes, to exactly the bytes it was given.
func FuzzPathVectorRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodePaths(nil))
	f.Add(encodePaths([]string{"", "/a", "/b/c"}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add(append(encodePaths([]string{"/a"}), 0)) // a trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		paths, err := decodePaths(data)
		if err != nil {
			return
		}
		wire := encodePaths(paths)
		again, err := decodePaths(wire)
		if err != nil {
			t.Fatalf("re-decode of accepted vector failed: %v", err)
		}
		if !reflect.DeepEqual(again, paths) {
			t.Fatalf("vector changed across re-encode: %q != %q", again, paths)
		}
		if !bytes.Equal(wire, data) {
			t.Fatalf("accepted %x, which re-encodes as %x", data, wire)
		}
	})
}

// TestObservationBatchBeyondUint16 pins that an L1 observation batch keeps
// every record past 65,535: one vector's found lookups flush as one batch,
// however many there are.
func TestObservationBatchBeyondUint16(t *testing.T) {
	obs := make([]observation, 70_000)
	for i := range obs {
		obs[i] = observation{home: i % 12, path: "/o/f" + strconv.Itoa(i)}
	}
	got, err := decodeObservations(encodeObservations(obs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("%d observations decoded as %d", len(obs), len(got))
	}
	if !reflect.DeepEqual(got, obs) {
		t.Fatal("observations changed across the round trip")
	}
}

// request is one frame of FuzzNodeServerRequests' input.
type request struct {
	op      uint8
	payload []byte
}

// requestStream frames a request sequence the way FuzzNodeServerRequests
// reads one: per request op uint8 | len uint16 | payload.
func requestStream(reqs ...request) []byte {
	var out []byte
	for _, r := range reqs {
		out = append(out, r.op)
		out = binary.BigEndian.AppendUint16(out, uint16(len(r.payload)))
		out = append(out, r.payload...)
	}
	return out
}

// FuzzNodeServerRequests drives a whole daemon — dispatch, codecs, node state
// and a WAL compacting every few records — with arbitrary request sequences:
// none may panic it, and whatever the sequence leaves on disk must recover,
// through mds.Recover, to exactly the files the live daemon holds. The input
// is a requestStream; a frame whose length overruns the input takes the rest.
func FuzzNodeServerRequests(f *testing.F) {
	minimal, _ := minimalRequests(f)
	var all []request
	for op := uint8(1); int(op) < len(opNames); op++ {
		r := request{op, minimal[op]}
		all = append(all, r)
		f.Add(requestStream(r))
		// A length one short and one long.
		if n := len(r.payload); n > 0 {
			f.Add(requestStream(request{op, r.payload[:n-1]}))
		}
		f.Add(requestStream(request{op, append(bytes.Clone(r.payload), 0)}))
	}
	f.Add(requestStream(all...))
	// Zero counts, and counts of 0xFFFF and 0xFFFFFFFF with nothing behind
	// them, for every vector a daemon decodes.
	inc := make([]byte, 8) // incarnation 0
	for _, count := range [][]byte{{0, 0, 0, 0}, {0, 0, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xff}} {
		for _, op := range []uint8{opObserveBatch, opLookupBatch, opQueryMemberBatch, opVerifyBatch, opHasLocalBatch} {
			f.Add(requestStream(request{op, count}))
		}
		f.Add(requestStream(request{opMutateBatch, append(inc[:8:8], count...)}))
	}
	// Mutations across the compaction cadence, an install and a drop of a
	// replica, and a mutation claimed under an incarnation the daemon does
	// not serve.
	var churn []request
	for i := 0; i < 6; i++ {
		p := "/f" + strconv.Itoa(i)
		churn = append(churn,
			request{opMutateBatch, encodeMutations(0, []wal.Record{{Op: wal.OpCreate, Path: p}, {Op: wal.OpCreate, Path: p + "x"}})},
			request{opMutateBatch, encodeMutations(0, []wal.Record{{Op: wal.OpDelete, Path: p}})})
	}
	churn = append(churn,
		request{opInstallReplica, minimal[opInstallReplica]},
		request{opDropReplica, minimal[opDropReplica]},
		request{opMutateBatch, encodeMutations(1, []wal.Record{{Op: wal.OpCreate, Path: "/stale"}})},
		request{opHeartbeat, nil})
	f.Add(requestStream(churn...))
	// Opcodes nobody defined, and a frame that declares more than it carries.
	f.Add(requestStream(request{0, nil}, request{uint8(len(opNames)), nil}, request{0xff, []byte{1}}))
	f.Add([]byte{opLookupBatch, 0xff, 0xff, 0, 0, 0, 1})

	cfg := testOptions(1, 1).Node
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		node, l, _, err := mds.Recover(0, cfg, dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		ns := &NodeServer{node: node, wal: l, snapshotEvery: 4}
		for len(data) > 0 {
			op, n := data[0], len(data)-1
			if len(data) >= 3 {
				n = min(int(binary.BigEndian.Uint16(data[1:])), len(data)-3)
				data = data[3:]
			} else {
				data = data[1:]
			}
			// Arbitrary input is mostly refused; only a panic or what the
			// requests leave behind matters here.
			_, _ = ns.handle(op, data[:n])
			data = data[n:]
		}
		live := node.Store().Paths()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		back, bl, _, err := mds.Recover(0, cfg, dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatalf("the daemon left a directory recovery refuses: %v", err)
		}
		defer bl.Close()
		recovered := back.Store().Paths()
		slices.Sort(live)
		slices.Sort(recovered)
		if !slices.Equal(live, recovered) {
			t.Fatalf("live daemon holds %q, recovery %q", live, recovered)
		}
	})
}

// FuzzBatchResponses drives the three response decoders that sit under every
// TCP operation — hit lists, bool vectors and the mutate batch answer — with
// arbitrary bytes for an arbitrary expected count: none may panic, none may
// accept a body whose length disagrees with n, and the bool decoders accept
// exactly the answer bytes 0 and 1.
func FuzzBatchResponses(f *testing.F) {
	oneList := appendHits(nil, []int{3})
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add(oneList, uint8(1))
	f.Add(oneList[:len(oneList)-1], uint8(1)) // one byte short
	f.Add(append(oneList[:6:6], 0), uint8(1)) // one byte long
	f.Add([]byte{0xff, 0xff}, uint8(1))       // a hit count of 0xFFFF with no hits behind it
	f.Add([]byte{0xff, 0xff, 0, 0}, uint8(2)) // … and as the first of two lists
	f.Add([]byte{1, 0, 1}, uint8(3))          // a bool vector; a mutate answer for one
	f.Add([]byte{1}, uint8(0))                // one byte short of a mutate answer for none
	f.Add([]byte{0, 0}, uint8(0))             // a mutate answer for none
	f.Add([]byte{1, 1, 0, 1}, uint8(2))       // a mutate answer for two
	f.Add([]byte{1, 1, 0, 1, 1}, uint8(2))    // … one byte long
	f.Add([]byte{1, 2, 0}, uint8(3))          // a bool vector with a corrupt answer
	f.Add([]byte{1, 0, 2}, uint8(1))          // a mutate answer with a corrupt flag
	f.Fuzz(func(t *testing.T, data []byte, count uint8) {
		n := int(count)
		if lists, err := decodeHitsVec(data, n); err == nil {
			size := 0
			for _, hits := range lists {
				size += 2 + 4*len(hits)
			}
			if len(lists) != n || size != len(data) {
				t.Fatalf("decodeHitsVec accepted %d bytes as %d lists spanning %d bytes, want %d lists", len(data), len(lists), size, n)
			}
		}
		answers := func(b []byte) bool { return !slices.ContainsFunc(b, func(x byte) bool { return x > 1 }) }
		if bs, err := decodeBools(data, n); (err == nil) != (len(data) == n && answers(data)) || err == nil && len(bs) != n {
			t.Fatalf("decodeBools(%d bytes, n=%d) = %d answers, %v", len(data), n, len(bs), err)
		}
		if _, _, err := decodeMutateResp(data, n); (err == nil) != (len(data) == n+2 && answers(data[n:])) {
			t.Fatalf("decodeMutateResp(%d bytes, n=%d): %v", len(data), n, err)
		}
	})
}

// FuzzMutationVector drives the mutate batch request decoder, the one codec
// whose output a daemon writes to its WAL: arbitrary bytes must never panic
// it, and since it refuses unknown kinds, short counts and trailing bytes,
// anything it accepts must re-encode to exactly the bytes it was given.
func FuzzMutationVector(f *testing.F) {
	two := encodeMutations(7, []wal.Record{{Op: wal.OpCreate, Path: "/a"}, {Op: wal.OpDelete, Path: "/a"}})
	header := make([]byte, 8) // incarnation 0
	f.Add([]byte{})
	f.Add(encodeMutations(0, nil))                              // zero count
	f.Add(two)                                                  // a create and a delete of one path
	f.Add(two[:len(two)-1])                                     // one byte short
	f.Add(append(two[:len(two):len(two)], 0))                   // one byte long
	f.Add(append(header[:8:8], 0, 0, 0xff, 0xff))               // count 0xFFFF with no records behind it
	f.Add(append(header[:8:8], 0, 0, 0, 1, 9, 0, 0))            // an unknown kind
	f.Add(append(header[:8:8], 0, 0, 0, 1, wal.OpCreate, 0, 0)) // one create of the empty path
	f.Fuzz(func(t *testing.T, data []byte) {
		incarnation, recs, err := decodeMutations(data)
		if err != nil {
			return
		}
		if again := encodeMutations(incarnation, recs); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which re-encodes as %x", data, again)
		}
	})
}
