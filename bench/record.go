package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// recordSchema versions the run-set record.
const recordSchema = "ghba-bench/1"

// environment is where a record was taken; -compare refuses to compare
// across CPU counts, GOMAXPROCS settings or WAL filesystems.
type environment struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	GitRev     string `json:"git_rev"`
	// WALFS is the filesystem type of the directory the TCP daemons log to.
	WALFS string `json:"wal_fs"`
}

func currentEnvironment(tmpDir string) environment {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	_ = os.MkdirAll(tmpDir, 0o755) // only to stat it; a failure shows as "unknown"
	return environment{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GitRev:     rev,
		WALFS:      fsType(tmpDir),
	}
}

// series is one metric on one workload across the runs of a set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

func newSeries(unit string, values []float64) series {
	q1, med, q3 := quartiles(values)
	return series{Unit: unit, Values: values, Q1: q1, Median: med, Q3: q3, N: len(values)}
}

// workloadRecord holds one workload's runs.
type workloadRecord struct {
	Name string `json:"name"`
	// Definition is the workload's full parameter string; records taken
	// from different definitions are not comparable.
	Definition string `json:"definition"`
	// EndToEnd is keyed by metric name: the end-to-end metrics, gated and
	// demoted, plus failed_ops_share; one value per run (seeds Seed …
	// Seed+Runs-1).
	EndToEnd map[string]series `json:"end_to_end"`
	// PerLayer is the traced run of the first seed, one value per metric.
	PerLayer map[string]value `json:"per_layer"`
}

// record is a run set: every workload run Runs times untraced, once traced.
type record struct {
	Schema    string           `json:"schema"`
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Runs      int              `json:"runs"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadRecord `json:"workloads"`
}

// runSet runs every workload runs times (one process per run, as the driver
// does, so heap and set-up are measured from a cold process each time) and
// writes the record to path.
func runSet(path string, runs int, o runOptions) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := record{Schema: recordSchema, Env: currentEnvironment(o.TmpDir), Seed: o.Seed, Runs: runs, Seconds: o.Seconds}
	child := func(w workload, seed int64, traced int) (result, error) {
		cmd := exec.Command(self, "-demoted",
			"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(traced), "-tmp", o.TmpDir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s seed %d: %w\n%s", w.Name, seed, err, stderr.String())
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return result{}, fmt.Errorf("%s seed %d: parsing result line: %w", w.Name, seed, err)
		}
		// A run that failed an output check or a stationarity limit measured
		// something else than the workload; no record is written from it.
		if !res.Correct {
			return result{}, fmt.Errorf("%s seed %d (trace %d): run is not correct\n%s", w.Name, seed, traced, stderr.String())
		}
		return res, nil
	}
	for _, w := range workloads {
		wr := workloadRecord{Name: w.Name, Definition: w.describe(), EndToEnd: make(map[string]series)}
		vals := make(map[string][]float64)
		for r := 0; r < runs; r++ {
			res, err := child(w, o.Seed+int64(r), 0)
			if err != nil {
				return err
			}
			for name, v := range res.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
			vals[failedOpsShare] = append(vals[failedOpsShare], float64(res.Failed)/float64(res.Attempted))
			fmt.Fprintf(os.Stderr, "%s seed %d: ops_per_s %.0f\n", w.Name, o.Seed+int64(r), res.Metrics["ops_per_s"].Value)
		}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = newSeries(m.Unit, vals[m.Name])
		}
		wr.EndToEnd[failedOpsShare] = newSeries("ratio", vals[failedOpsShare])
		res, err := child(w, o.Seed, 1)
		if err != nil {
			return err
		}
		wr.PerLayer = res.Metrics
		fmt.Fprintf(os.Stderr, "%s seed %d: traced run done\n", w.Name, o.Seed)
		rec.Workloads = append(rec.Workloads, wr)
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecord loads a run-set record.
func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return rec, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return rec, nil
}
