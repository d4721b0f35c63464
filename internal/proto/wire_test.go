package proto

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ghba/internal/bloom"
	"ghba/internal/mds"
	"ghba/internal/trace"
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
			wire = append(wire, encodeHits(hits)...)
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
	}
	boolTrip := func(t *testing.T) {
		for _, b := range []bool{true, false} {
			if byteBool(boolByte(b)) != b {
				t.Fatalf("bool %v did not round-trip", b)
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
		{opQueryEntry, func(t *testing.T) {
			// Request is the raw path; response is two hit lists (L1, L2)
			// back to back.
			hitsTrip(t, [][]int{sampleHits[2], sampleHits[1]})
		}},
		{opQueryMember, func(t *testing.T) {
			hitsTrip(t, [][]int{sampleHits[2]})
		}},
		{opVerify, boolTrip},
		{opHasLocal, boolTrip},
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
		{opObserveBatch, func(t *testing.T) {
			obs := []observation{{home: 2, path: "/a"}, {home: 9, path: ""}, {home: 1 << 20, path: "/b/c"}}
			got, err := decodeObservations(encodeObservations(obs))
			if err != nil {
				t.Fatalf("decodeObservations: %v", err)
			}
			if !reflect.DeepEqual(got, obs) {
				t.Fatalf("observations: got %v, want %v", got, obs)
			}
		}},
		{opPing, func(t *testing.T) {
			// Empty request, empty ack: the round trip is the frame itself,
			// covered by rpcnet's FuzzFrameRoundTrip.
		}},
		{opCreateFile, func(t *testing.T) {
			for _, crossed := range []bool{true, false} {
				got, err := decodeCreateResp(boolByte(crossed))
				if err != nil {
					t.Fatalf("decodeCreateResp: %v", err)
				}
				if got != crossed {
					t.Fatalf("crossed %v did not round-trip", crossed)
				}
			}
		}},
		{opDeleteFile, func(t *testing.T) {
			for _, existed := range []bool{true, false} {
				for _, rebuilt := range []bool{true, false} {
					resp := append(boolByte(existed), boolByte(rebuilt)...)
					gotExisted, gotRebuilt, err := decodeDeleteResp(resp)
					if err != nil {
						t.Fatalf("decodeDeleteResp: %v", err)
					}
					if gotExisted != existed || gotRebuilt != rebuilt {
						t.Fatalf("delete resp (%v, %v) decoded as (%v, %v)", existed, rebuilt, gotExisted, gotRebuilt)
					}
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
		{opCreateBatch, func(t *testing.T) {
			pathsTrip(t)
			if crossed, err := decodeCreateResp(boolByte(true)); err != nil || !crossed {
				t.Fatalf("batch create resp: got (%v, %v)", crossed, err)
			}
		}},
		{opDeleteBatch, func(t *testing.T) {
			paths := pathsTrip(t)
			// Response: one existed byte per path, then one rebuilt byte.
			resp := make([]byte, len(paths)+1)
			resp[0], resp[len(paths)] = 1, 1
			if len(resp) != len(paths)+1 {
				t.Fatalf("delete batch resp wants %d bytes, got %d", len(paths)+1, len(resp))
			}
			if resp[0] != 1 || resp[1] != 0 || resp[len(paths)] != 1 {
				t.Fatal("delete batch existed/rebuilt bytes misplaced")
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
}

// TestEveryOpcodeDispatches pins the daemon half of the opcode table: every
// opcode with a name has a dispatch arm that accepts a minimal well-formed
// request. An opcode added to opNames without a case in handle (or without a
// request here) fails it.
func TestEveryOpcodeDispatches(t *testing.T) {
	path := []byte("/p")
	paths := encodePaths([]string{"/p"})
	replica, err := bloom.NewForCapacity(2_000, 16)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := replica.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	requests := map[uint8][]byte{
		opQueryEntry:       path,
		opQueryMember:      path,
		opVerify:           path,
		opHasLocal:         path,
		opInstallReplica:   encodeOriginPayload(1, wire),
		opDropReplica:      encodeOriginPayload(1, nil),
		opShipFilter:       nil,
		opObserveBatch:     encodeObservations([]observation{{home: 1, path: "/p"}}),
		opPing:             nil,
		opCreateFile:       path,
		opDeleteFile:       path,
		opLookupBatch:      paths,
		opQueryMemberBatch: paths,
		opVerifyBatch:      paths,
		opHasLocalBatch:    paths,
		opCreateBatch:      paths,
		opDeleteBatch:      paths,
		opHeartbeat:        nil,
	}
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
}

// TestEveryOpcodeIsSent pins the coordinator half: one scripted scenario —
// the per-op and the vector mutation paths, lookups that resolve at every
// level, a join, a split, a failover and a heartbeat — after which every
// opcode in opNames has crossed the wire at least once. An opcode nothing
// sends is a dispatch arm, a codec and a wire-format row kept for no caller.
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

	numGroups := func() int {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return len(c.groups)
	}
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
// must re-encode to a decodable equal vector.
func FuzzPathVectorRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodePaths(nil))
	f.Add(encodePaths([]string{"", "/a", "/b/c"}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		paths, err := decodePaths(data)
		if err != nil {
			return
		}
		again, err := decodePaths(encodePaths(paths))
		if err != nil {
			t.Fatalf("re-decode of accepted vector failed: %v", err)
		}
		if !reflect.DeepEqual(again, paths) {
			t.Fatalf("vector changed across re-encode: %q != %q", again, paths)
		}
	})
}
