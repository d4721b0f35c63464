// Command bench is the repository's one performance harness: five named
// workloads measured end to end through ghba.Backend, and — in a separate
// traced run — down a ladder of public entry points from the facade to the
// Bloom filter. See README.md in this directory.
//
//	go run ./bench -workload sim_lookup_zipf                 one untraced run
//	go run ./bench -workload tcp_mixed_perop -trace 1        the traced run (layer ladder)
//	go run ./bench -runset a.json -runs 10                   ten seeds of every workload → record
//	go run ./bench -compare a.json b.json                    regression gate between two records
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultTmpDir is where WAL directories and span dumps land unless -tmp
// says otherwise: inside the checkout, never in the system temp directory
// (which is commonly tmpfs, where fsync costs nothing).
var defaultTmpDir = filepath.Join(".bench_build", "tmp")

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := defaultRunOptions()
	name := fs.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "seed of the op streams and entry-server draws")
	fs.Float64Var(&o.Seconds, "seconds", o.Seconds, "total wall time of the timed rounds")
	traced := fs.Int("trace", 0, "1 runs the layer ladder and prints per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.TmpDir, "tmp", o.TmpDir, "directory for WAL dirs and span dumps (use a real filesystem, not tmpfs)")
	runset := fs.String("runset", "", "run every workload -runs times (seeds seed..seed+runs-1) and write the record to this file")
	runs := fs.Int("runs", 10, "runs per workload of a -runset")
	demoted := fs.Bool("demoted", false, "also put the demoted end-to-end metrics on the result line (what a -runset records)")
	compare := fs.Bool("compare", false, "compare two -runset records: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two record files, got %d arguments", fs.NArg())
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *runset != "":
		return runSet(*runset, *runs, o)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames())
	}
	ctx := context.Background()
	var res result
	if *traced != 0 {
		lad, err := runLadder(ctx, w, o)
		if err != nil {
			return err
		}
		lad.print(os.Stderr)
		res = lad.result()
	} else {
		rep, err := runEndToEnd(ctx, w, o)
		if err != nil {
			return err
		}
		rep.print(os.Stderr)
		res = rep.result(*demoted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}
