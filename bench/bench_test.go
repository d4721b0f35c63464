package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ghba"
)

// tinyOptions shrinks a run to smoke-test size: fixed round count, one
// set-up, short model pass and sweep, tiny ladder rungs.
func tinyOptions(t *testing.T) runOptions {
	t.Helper()
	o := defaultRunOptions()
	o.Seed = 7
	o.Rounds = 2
	o.Setups = 1
	o.ModelOps = 600
	o.SweepPaths = 200
	o.TmpDir = t.TempDir()
	o.Ladder = ladderSizes{
		Ops: 600, Tail: 32,
		ProtoWarm: 256, ProtoOps: 120, ProtoBatchOps: 256, ProtoTail: 8,
		Mutations: 256, FPRProbes: 20_000,
		Echoes: 40, WALRecords: 300, Fsyncs: 4, Restarts: 1,
	}
	return o
}

// tinyDiv is the scale-down of the smoke workloads.
const tinyDiv = 400

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runEndToEnd(context.Background(), w.scaled(tinyDiv), tinyOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			// Stationarity (rep.Drift) is a property of the full-size
			// workloads; a 300-op round cannot show it either way.
			if rep.Failed != 0 || len(rep.Problems) != 0 {
				t.Fatalf("failed %d of %d, problems %q", rep.Failed, rep.Attempted, rep.Problems)
			}
			if got, want := len(rep.result(false).Metrics), len(gated()); got != want {
				t.Fatalf("the driver's result line carries %d metrics, want the %d gated ones", got, want)
			}
			res := rep.result(true)
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, v, ok, m.Unit)
				}
				if !(v.Value > 0) {
					t.Errorf("metric %s = %v, want > 0", m.Name, v.Value)
				}
			}
		})
	}
}

// ladderOnce runs the tiny traced run of one workload.
func ladderOnce(t *testing.T, name string, o runOptions) *ladder {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	l, err := runLadder(context.Background(), w.scaled(tinyDiv), o)
	if err != nil {
		t.Fatal(err)
	}
	if l.failed != 0 || len(l.probs) != 0 {
		t.Fatalf("%s ladder: failed %d of %d, problems %q", name, l.failed, l.tried, l.probs)
	}
	return l
}

// countMetric reports whether a per-layer metric is a count the program
// makes (as opposed to a time or an allocation figure), which must repeat
// exactly for a seed.
func countMetric(name string) bool {
	return strings.HasSuffix(name, "_share") && name != "ghba.trace_overhead_share" ||
		strings.HasPrefix(name, "proto.rpcs_per_op") ||
		strings.HasSuffix(name, "_per_kop") ||
		name == "core.msgs_per_op" || strings.HasPrefix(name, "bloom.fpr_")
}

func TestLadder(t *testing.T) {
	// One lookup-only simulator workload and one batched TCP workload
	// between them take every branch of the ladder; the second is run twice
	// to pin that the counts repeat.
	o := tinyOptions(t)
	sim := ladderOnce(t, "sim_lookup_zipf", o)
	tcp := ladderOnce(t, "tcp_mixed_batch", o)
	again := ladderOnce(t, "tcp_mixed_batch", o)

	for _, l := range []*ladder{sim, tcp} {
		res := l.result()
		if len(res.Metrics) != len(perLayer) {
			t.Fatalf("%s: printed %d metrics, want %d", l.w.Name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if _, ok := l.vals[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s was never measured", l.w.Name, m.Name)
			}
		}
		for name := range l.vals {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: measured %s, which BENCHMARK.json does not list", l.w.Name, name)
			}
		}
		if l.vals["core.self_ns"] == 0 || l.vals["proto.self_ns"] == 0 {
			t.Errorf("%s: self times not derived: core %v proto %v", l.w.Name, l.vals["core.self_ns"], l.vals["proto.self_ns"])
		}
	}
	for _, m := range perLayer {
		if countMetric(m.Name) && tcp.vals[m.Name] != again.vals[m.Name] {
			t.Errorf("count %s differs between two runs of one seed: %v vs %v", m.Name, tcp.vals[m.Name], again.vals[m.Name])
		}
	}
	if got := tcp.vals["proto.rpcs_per_op"]; !(got > 0 && got < 1.5) {
		t.Errorf("batched proto.rpcs_per_op = %v, want amortized below the per-op rung's", got)
	}

	// The span dump holds every rung of both ladders.
	f, err := os.Open(filepath.Join(o.TmpDir, "spans-tcp_mixed_batch.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for first := true; sc.Scan(); first = false {
		var sp struct {
			span
			Workload string `json:"workload"`
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if first {
			continue // header
		}
		if sp.Workload != "tcp_mixed_batch" || sp.End < sp.Start {
			t.Fatalf("bad span %+v", sp)
		}
		seen[sp.Name]++
	}
	for _, name := range []string{
		"ghba.Prototype.ApplyBatch", "core.Cluster.ApplyWith", "mds.Node.QueryL2Digest", "mds.Node.HasFile",
		"mds.Node.AddFile", "mds.Node.DeleteFile", "mds.Node.Ship", "bloomarray.Array.QueryDigest", "bloomarray.Array.Put",
		"bloomarray.LRUArray.QueryDigest", "bloomarray.LRUArray.ObserveDigest", "bloom.NewDigestString",
		"bloom.Filter.ContainsDigest/classic", "bloom.Filter.AddDigest", "metastore.Store.Has", "shipq.Queue.Note",
		"proto.Cluster.ApplyWith", "proto.Cluster.ApplyBatch", "rpcnet.MuxClient.CallContext", "rpcnet.Pool.CallContext",
		"wal.Log.Append/always", "wal.Log.Snapshot", "mds.Recover",
	} {
		if seen[name] == 0 {
			t.Errorf("no span named %s in the dump (have %v)", name, seen)
		}
	}
}

// streamSignature folds the first n operations a seed generates for w into
// one number, so tests can assert "same seed, same stream" without holding
// two streams in memory.
func streamSignature(w workload, seed int64, n int) (uint64, error) {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	if w.Stream != streamMixed {
		idx := make([]int32, n)
		for _, s := range newLookupSources(w, seed, loadWorkers) {
			s.fill(idx)
			for _, ix := range idx {
				mix(uint64(ix))
			}
		}
		return h, nil
	}
	srcs, err := newMixedSources(w, seed, loadWorkers)
	if err != nil {
		return 0, err
	}
	ops := make([]ghba.Op, n)
	for _, s := range srcs {
		s.fill(ops)
		for _, op := range ops {
			mix(uint64(op.Kind))
			for _, c := range []byte(op.Path) {
				mix(uint64(c))
			}
		}
	}
	return h, nil
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(tinyDiv)
		a, err := streamSignature(w, 3, 2000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamSignature(w, 3, 2000)
		c, _ := streamSignature(w, 4, 2000)
		if a != b {
			t.Errorf("%s: one seed, two streams (%x vs %x)", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 generate the same stream (%x)", w.Name, a)
		}
		o := tinyOptions(t)
		m1, err := modelLatency(w, o)
		if err != nil {
			t.Fatal(err)
		}
		m2, _ := modelLatency(w, o)
		if m1 != m2 || !(m1 > 0) {
			t.Errorf("%s: model_lat_mean_us %v then %v for one seed", w.Name, m1, m2)
		}
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := make(map[string]bool)
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q outside the allowed alphabet", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q / %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	sameDefs := func(kind string, file, code []metricDef) {
		t.Helper()
		if len(file) != len(code) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d", len(file), kind, len(code))
		}
		for i, m := range code {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q outside the allowed alphabet", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if m.SeedBound > 0 {
				// BENCHMARK.json carries the bound that holds between
				// different seeds, and has no field for an absolute floor.
				m.Bound = m.SeedBound
			}
			m.Floor, m.SeedBound = 0, 0
			if file[i] != m {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, file[i], m)
			}
		}
	}
	sameDefs("end-to-end", file.EndToEnd, gated())
	sameDefs("per-layer", file.PerLayer, perLayer)
	// Every demoted end-to-end metric lives on as the per-layer ghba.<name>.
	for _, e := range endToEnd {
		if e.Demoted && !used["ghba."+e.Name] {
			t.Errorf("%s is demoted, but no per-layer metric ghba.%s exists", e.Name, e.Name)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, m := range file.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" || m.Floor != 0.25 {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the 0.25 s floor; have %+v", m)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" || file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", file.Paths, file.RunSeconds, file.Command)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v", q1, med, q3)
	}
	if v, ok := percentile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50, 5); v != 5 || !ok {
		t.Errorf("p50 of 1..10 = %v (reportable %t)", v, ok)
	}
	if _, ok := percentile(make([]int64, 999), 99, 10); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reportable")
	}
	if _, ok := percentile(make([]int64, 1000), 99, 10); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it and must be reportable")
	}
}

func TestCompareRule(t *testing.T) {
	steady := func(med float64) series {
		return newSeries("x", []float64{med * 0.99, med, med, med * 1.01, med})
	}
	noisy := func(med float64) series {
		return newSeries("x", []float64{med * 0.7, med * 0.8, med, med * 1.2, med * 1.3})
	}
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops", Better: "higher", Bound: 0.10}
	floored := metricDef{Name: "setup", Better: "lower", Bound: 0.10, Floor: 0.25}
	for _, tc := range []struct {
		name     string
		m        metricDef
		old, cur series
		want     verdict
	}{
		{"within bound", lower, steady(100), steady(108), verdictOK},
		{"improved", lower, steady(100), steady(50), verdictOK},
		{"worse by more than the bound", lower, steady(100), steady(112), verdictRegression},
		{"higher is better: drop is a regression", higher, steady(100), steady(88), verdictRegression},
		{"higher is better: rise is fine", higher, steady(100), steady(130), verdictOK},
		{"noisy old side cannot show unchanged", lower, noisy(100), steady(101), verdictUnresolved},
		{"noisy new side cannot show unchanged", higher, steady(100), noisy(101), verdictUnresolved},
		{"a regression stays one however noisy", lower, noisy(100), noisy(150), verdictRegression},
		{"under the absolute floor the relative bound does not apply", floored, steady(1), steady(1.2), verdictOK},
		{"over both the bound and the floor", floored, steady(1), steady(1.3), verdictRegression},
		{"the floor is no help to a large value", floored, steady(10), steady(11.5), verdictRegression},
	} {
		if got, _ := judge(tc.m, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
	zero := newSeries("ratio", []float64{0, 0, 0, 0, 0})
	if judgeFailures(zero, zero) != verdictOK {
		t.Error("no failures on either side must be ok")
	}
	if judgeFailures(zero, newSeries("ratio", []float64{0, 0.001, 0, 0, 0})) != verdictRegression {
		t.Error("one failing run must be a regression")
	}

	// Records must describe the same experiment on the same kind of machine.
	mk := func() record {
		rec := record{Schema: recordSchema, Env: environment{CPUs: 2, GOMAXPROCS: 2, WALFS: "ext4"}, Seed: 1, Runs: 5, Seconds: 10}
		for _, w := range workloads {
			wr := workloadRecord{Name: w.Name, Definition: w.describe(), EndToEnd: map[string]series{failedOpsShare: zero}}
			for _, m := range endToEnd {
				wr.EndToEnd[m.Name] = steady(100)
			}
			rec.Workloads = append(rec.Workloads, wr)
		}
		return rec
	}
	var out bytes.Buffer
	if err := compareRecords(&out, mk(), mk()); err != nil {
		t.Errorf("identical records: %v\n%s", err, out.String())
	}
	for name, mutate := range map[string]func(*record){
		"cpus":       func(r *record) { r.Env.CPUs = 4 },
		"gomaxprocs": func(r *record) { r.Env.GOMAXPROCS = 1 },
		"wal_fs":     func(r *record) { r.Env.WALFS = "tmpfs" },
		"seed":       func(r *record) { r.Seed = 2 },
		"definition": func(r *record) { r.Workloads[2].Definition += " tweaked" },
		// A metric that is gone, reads zero or lost a run must not pass as an
		// improvement.
		"a missing series": func(r *record) { delete(r.Workloads[1].EndToEnd, "lat_p50_us") },
		"a zero median":    func(r *record) { r.Workloads[1].EndToEnd["lat_p50_us"] = zero },
		"a lost run": func(r *record) {
			r.Workloads[3].EndToEnd["ops_per_s"] = newSeries("1/s", []float64{100, 100, 100, 100})
		},
		"no failure count": func(r *record) { delete(r.Workloads[0].EndToEnd, failedOpsShare) },
	} {
		cur := mk()
		mutate(&cur)
		if err := compareRecords(&out, mk(), cur); err == nil || errors.Is(err, errRegression) {
			t.Errorf("records differing in %s must be refused, got %v", name, err)
		}
	}
	fat := mk()
	fat.Workloads[0].EndToEnd["heap_mb"] = steady(120)
	if err := compareRecords(&out, mk(), fat); !errors.Is(err, errRegression) {
		t.Errorf("a fifth more heap must fail the comparison, got %v", err)
	}
	// A demoted metric is judged and shown, and gates nothing.
	slow := mk()
	slow.Workloads[0].EndToEnd["ops_per_s"] = steady(50)
	out.Reset()
	if err := compareRecords(&out, mk(), slow); err != nil || !strings.Contains(out.String(), string(verdictRegression)) {
		t.Errorf("halved throughput of a demoted metric must be shown as a regression and pass, got %v\n%s", err, out.String())
	}
	if math.IsNaN(spread(nil)) {
		t.Error("spread of nothing must be a number")
	}
}
