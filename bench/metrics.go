package main

import (
	"fmt"
	"io"
	"runtime"
)

// metricDef declares one metric exactly as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is an absolute worsening, in the metric's unit, below which
	// -compare never calls a regression whatever the relative bound says.
	// BENCHMARK.json has no field for it.
	Floor float64 `json:"-"`
	// SeedBound, when set, is the bound BENCHMARK.json carries in Bound's
	// place. The driver takes its ten runs of a spread from ten different
	// seeds and wants that spread inside the bound; -compare sets two records
	// of the same seeds side by side, where Bound applies as it stands.
	SeedBound float64 `json:"-"`
	// Demoted marks an end-to-end metric that failed to repeat within its
	// bound on the machine this benchmark was defined on (README.md has the
	// runs). Every untraced run still measures it, -runset records it and
	// -compare reports it, but it gates nothing: it is absent from
	// BENCHMARK.json's end_to_end list and from the driver's result line,
	// and the traced run prints it as the per-layer metric ghba.<name>.
	Demoted bool `json:"-"`
}

// endToEnd are the metrics an untraced run of every workload measures, with
// the issue's bounds: the share of the baseline's median by which a metric
// may worsen before -compare calls it a regression. A bound is never widened
// to fit the machine; a metric that cannot repeat within it is demoted.
//
// Two metrics carry another bound in BENCHMARK.json (SeedBound). setup_s has
// 25% there, the file having no way to say "10% or 0.25 s". model_lat_mean_us
// has 4%: it repeats exactly for a seed, so 1% stands between two records of
// the same seeds, but between seeds it differs by what the seed's stream
// holds — on sim_lookup_zipf by 0.5–1.0% (interquartile, ten seeds) over the
// pass's 1M ops and still by 0.3–0.7% over 8M: which files are hot, and when
// one of the few hottest collides in another home's L1 filter, is the
// stream's doing. README.md has the measurement.
//
// failed_ops_share travels as the result's attempted/failed counts (it is
// zero on a correct run, and a bound relative to a zero median gates
// nothing); -compare treats any rise above zero as a regression.
//
// lat_p99_us is measured by the traced run alone, as ghba.lat_p99_us: it
// was the first metric demoted (ten seeds spread 21% on sim_lookup_uniform,
// 42% on tcp_mixed_perop), and a round of 256-op vectors holds too few
// calls to carry a p99 at all.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, Floor: 0.25, SeedBound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Demoted: true},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Demoted: true},
	{Name: "model_lat_mean_us", Unit: "us", Better: "lower", Bound: 0.01, SeedBound: 0.04},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// gated are the end-to-end metrics BENCHMARK.json lists and the driver's
// result line carries.
func gated() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.Demoted {
			out = append(out, m)
		}
	}
	return out
}

const failedOpsShare = "failed_ops_share"

// perLayer are the ungated metrics of single layers, printed by the traced
// run of every workload, named <module>.<metric>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "ghba.call_ns")
	add("count", "lower", "ghba.allocs_per_op")
	add("B", "lower", "ghba.bytes_per_op")
	add("ratio", "lower", "ghba.trace_overhead_share")
	add("1/s", "higher", "ghba.ops_per_s")
	add("us", "lower", "ghba.lat_p50_us", "ghba.lat_p99_us")

	add("ns", "lower", "core.lookup_ns", "core.apply_ns.create", "core.apply_ns.delete", "core.self_ns")
	add("ratio", "higher", "core.l1_share", "core.l2_share")
	add("ratio", "lower", "core.l3_share", "core.l4_share")
	add("count", "lower", "core.msgs_per_op", "core.replica_ships_per_kop")
	add("ratio", "higher", "core.scaling_2w")

	add("ns", "lower", "mds.l2_query_ns")
	add("ratio", "higher", "mds.l2_unique_share")
	add("ns", "lower", "mds.has_file_ns", "mds.add_file_ns", "mds.delete_file_ns", "mds.ship_ns",
		"mds.recover_ns_per_record", "mds.snapshot_load_ns_per_file")
	add("B", "lower", "mds.snapshot_bytes_per_file")

	add("ns", "lower", "bloomarray.array_query_ns", "bloomarray.array_put_ns", "bloomarray.lru_query_ns", "bloomarray.lru_observe_ns")
	add("ratio", "higher", "bloomarray.lru_hit_share")
	add("B", "lower", "bloomarray.array_bytes", "bloomarray.lru_bytes")

	add("ns", "lower", "bloom.digest_ns", "bloom.contains_ns.classic", "bloom.contains_ns.blocked", "bloom.add_ns",
		"bloom.xor_ns", "bloom.marshal_ns", "bloom.unmarshal_ns")
	add("B", "lower", "bloom.wire_bytes")
	add("ratio", "lower", "bloom.fpr_measured.classic", "bloom.fpr_measured.blocked", "bloom.fpr_theory")

	add("ns", "lower", "metastore.has_ns", "metastore.put_ns", "shipq.note_ns")

	add("ns", "lower", "proto.apply_ns.lookup", "proto.apply_ns.create", "proto.apply_ns.delete", "proto.batch_ns_per_op")
	add("count", "lower", "proto.rpcs_per_op")
	for _, op := range perOpOpcodes {
		add("count", "lower", "proto.rpcs_per_op."+op)
	}
	for _, op := range batchOpcodes {
		add("count", "lower", "proto.rpcs_per_op."+op)
	}
	add("ratio", "higher", "proto.l1_share", "proto.l2_share")
	add("ratio", "lower", "proto.l3_share", "proto.l4_share")
	add("count", "lower", "proto.replica_ships_per_kop")
	add("ns", "lower", "proto.self_ns")
	add("ms", "lower", "proto.restart_ms")

	add("ns", "lower", "rpcnet.mux_call_ns", "rpcnet.classic_call_ns", "rpcnet.mux_call_ns.2c", "rpcnet.classic_call_ns.2c", "rpcnet.mux_call_ns.16k")
	add("count", "lower", "rpcnet.mux_allocs_per_call", "rpcnet.classic_allocs_per_call")

	add("ns", "lower", "wal.append_ns.always", "wal.append_ns.never", "wal.append_ns_per_rec.batch128")
	add("B", "lower", "wal.bytes_per_record")
	add("ns", "lower", "wal.snapshot_ns", "wal.open_replay_ns_per_record")

	add("ns", "lower", "trace.next_ns")
	return out
}

// values returns the run's end-to-end metrics: medians over rounds for the
// timed figures, the median over repetitions for set-up.
func (r *report) values() map[string]float64 {
	var ops, p50 []float64
	for _, rd := range r.Rounds {
		ops = append(ops, float64(rd.ops)/rd.wall.Seconds())
		if rd.p50 > 0 {
			p50 = append(p50, rd.p50)
		}
	}
	return map[string]float64{
		"setup_s":           median(r.Setups),
		"ops_per_s":         median(ops),
		"lat_p50_us":        median(p50),
		"model_lat_mean_us": r.ModelLat,
		"heap_mb":           r.HeapMB,
	}
}

// result renders the report in the driver's output shape: the gated
// metrics, and the demoted ones too when a -runset asks for them.
func (r *report) result(withDemoted bool) result {
	res := result{
		Correct:   len(r.Problems) == 0 && len(r.Drift) == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]value),
	}
	vals := r.values()
	for _, m := range endToEnd {
		if !m.Demoted || withDemoted {
			res.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
		}
	}
	return res
}

// print writes the human-readable account of the run.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d timed rounds, %d set-ups, %s, %d CPUs, GOMAXPROCS %d\n",
		r.Workload, r.Seed, len(r.Rounds), len(r.Setups), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for i, rd := range r.Rounds {
		sh := shares(rd.levels)
		fmt.Fprintf(w, "  round %2d: %8d ops in %8.3fs = %10.0f ops/s  p50 %9.2fus  (%d samples)  L1-4 %.3f %.3f %.3f %.3f\n",
			i+1, rd.ops, rd.wall.Seconds(), float64(rd.ops)/rd.wall.Seconds(), rd.p50, len(rd.lat), sh[1], sh[2], sh[3], sh[4])
	}
	fmt.Fprintf(w, "  set-ups (s): %.3f\n", r.Setups)
	vals := r.values()
	for _, m := range endToEnd {
		note := ""
		if m.Demoted {
			note = " (demoted: ungated)"
		}
		fmt.Fprintf(w, "  %-20s %14.4f %s%s\n", m.Name, vals[m.Name], m.Unit, note)
	}
	if r.FileDrift != 0 || r.ShareDrift != 0 { // mixed workloads
		fmt.Fprintf(w, "  over the timed rounds: FileCount %+.2f%% (limit %.0f%%), largest level-share move %.3f (limit %.2f)\n",
			r.FileDrift*100, maxFileDrift*100, r.ShareDrift, maxShareDrift)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-20s %14.6f ratio (%d of %d)\n", failedOpsShare, share, r.Failed, r.Attempted)
	for _, p := range append(r.Problems, r.Drift...) {
		fmt.Fprintf(w, "  NOT CORRECT: %s\n", p)
	}
}
