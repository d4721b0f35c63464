// Command ghbabench regenerates the tables and figures of the paper's
// evaluation. Each -fig/-table selects one experiment; -all runs everything.
//
//	ghbabench -fig 6          # normalized throughput vs group size
//	ghbabench -fig 8 -ops 120000
//	ghbabench -table 5
//	ghbabench -all
//
// Output is the textual equivalent of the paper's chart: the same series, a
// pure function of -seed (Fig 14's wall-clock cells excepted). Performance
// numbers come from the repo's one harness instead: bash bench/run.sh
// --workload <name>, see bench/README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ghba/internal/analysis"
	"ghba/internal/experiments"
	"ghba/internal/trace"
)

// options is the parsed command line.
type options struct {
	fig, table     int
	all            bool
	ops, n, protoN int
	seed           int64
}

// parseFlags parses args and rejects a selection that names no experiment:
// the paper has Figs 6–15 and Tables 3–5, and asking for anything else used
// to print nothing and exit 0. Usage and errors go to stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("ghbabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.fig, "fig", 0, "figure number to regenerate (6–15)")
	fs.IntVar(&o.table, "table", 0, "table number to regenerate (3, 4 or 5)")
	fs.BoolVar(&o.all, "all", false, "regenerate every figure and table")
	fs.IntVar(&o.ops, "ops", 0, "override the operation count (0 = driver default)")
	fs.IntVar(&o.n, "n", 0, "override the MDS count where applicable (0 = default)")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.protoN, "proto-n", 20, "prototype daemon count (figs 14–15)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	switch {
	case o.fig != 0 && (o.fig < 6 || o.fig > 15):
		err = fmt.Errorf("no figure %d: -fig takes 6–15", o.fig)
	case o.table != 0 && (o.table < 3 || o.table > 5):
		err = fmt.Errorf("no table %d: -table takes 3, 4 or 5", o.table)
	case !o.all && o.fig == 0 && o.table == 0:
		err = errors.New("nothing selected: pass -fig, -table or -all")
	}
	if err != nil {
		fmt.Fprintln(stderr, "ghbabench:", err)
		fs.Usage()
	}
	return o, err
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	run := func(figNo int) bool { return o.all || o.fig == figNo }
	runTable := func(tableNo int) bool { return o.all || o.table == tableNo }

	if runTable(3) || runTable(4) {
		out, err := experiments.Tables34(20_000, o.seed)
		exitIf(err)
		fmt.Println(out)
	}
	if run(6) {
		for _, nn := range pick(o.n, []int{30, 100}) {
			for _, p := range trace.Profiles() {
				cfg := experiments.DefaultFig6Config(p, nn)
				cfg.Seed = o.seed
				if o.ops > 0 {
					cfg.Ops = o.ops
				}
				rows, err := experiments.Fig6(cfg)
				exitIf(err)
				fmt.Println(experiments.FormatFig6(p.Name, nn, rows))
			}
		}
	}
	if run(7) {
		for _, p := range trace.Profiles() {
			cfg := experiments.DefaultFig7Config(p)
			cfg.Seed = o.seed
			if o.ops > 0 {
				cfg.Ops = o.ops
			}
			rows, err := experiments.Fig7(cfg)
			exitIf(err)
			fmt.Println(experiments.FormatFig7(p.Name, rows))
		}
	}
	for figNo := 8; figNo <= 10; figNo++ {
		if !run(figNo) {
			continue
		}
		cfg := experiments.DefaultLatencyFigConfig(figNo)
		cfg.Seed = o.seed
		if o.ops > 0 {
			cfg.Ops = o.ops
			cfg.Interval = o.ops / 6
		}
		if o.n > 0 {
			cfg.N = o.n
			cfg.M = analysis.PaperOptimalM(o.n)
		}
		series, err := experiments.LatencyFig(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatLatencyFig(cfg, series))
	}
	if run(11) {
		rows, err := experiments.Fig11([]int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, o.seed)
		exitIf(err)
		fmt.Println(experiments.FormatFig11(rows))
	}
	if run(12) {
		var rows []experiments.Fig12Row
		for _, nn := range pick(o.n, []int{30, 100}) {
			cfg := experiments.DefaultFig12Config(nn)
			cfg.Seed = o.seed
			r, err := experiments.Fig12(cfg)
			exitIf(err)
			rows = append(rows, r...)
		}
		fmt.Println(experiments.FormatFig12(rows))
	}
	if run(13) {
		cfg := experiments.DefaultFig13Config()
		cfg.Seed = o.seed
		if o.ops > 0 {
			cfg.Ops = o.ops
		}
		rows, err := experiments.Fig13(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatFig13(rows))
	}
	if run(14) {
		cfg := experiments.DefaultFig14Config()
		cfg.N = o.protoN
		cfg.Seed = o.seed
		if o.ops > 0 {
			cfg.Ops = o.ops
			cfg.Interval = o.ops / 4
		}
		series, err := experiments.Fig14(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatFig14(cfg, series))
	}
	if run(15) {
		m := 7
		rows, err := experiments.Fig15(o.protoN, m, 10, o.seed)
		exitIf(err)
		fmt.Println(experiments.FormatFig15(o.protoN, m, rows))
	}
	if runTable(5) {
		rows, err := experiments.Table5([]int{20, 40, 60, 80, 100}, 2_000, o.seed)
		exitIf(err)
		fmt.Println(experiments.FormatTable5(rows))
	}
}

// pick returns {override} when the override is set, otherwise the defaults.
func pick(override int, defaults []int) []int {
	if override > 0 {
		return []int{override}
	}
	return defaults
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghbabench:", err)
		os.Exit(1)
	}
}
