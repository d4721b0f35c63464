// Command ghbabench regenerates the tables and figures of the paper's
// evaluation. Each -fig/-table selects one experiment; -all runs everything.
//
//	ghbabench -fig 6          # normalized throughput vs group size
//	ghbabench -fig 8 -ops 120000
//	ghbabench -table 5
//	ghbabench -all
//
// Output is the textual equivalent of the paper's chart: the same series,
// ready to diff against EXPERIMENTS.md. Performance numbers come from the
// repo's one harness instead: bash bench/run.sh --workload <name>, see
// bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"ghba/internal/analysis"
	"ghba/internal/experiments"
	"ghba/internal/trace"
)

func main() {
	var (
		fig    = flag.Int("fig", 0, "figure number to regenerate (6–15)")
		table  = flag.Int("table", 0, "table number to regenerate (3, 4 or 5)")
		all    = flag.Bool("all", false, "regenerate every figure and table")
		ops    = flag.Int("ops", 0, "override the operation count (0 = driver default)")
		n      = flag.Int("n", 0, "override the MDS count where applicable (0 = default)")
		seed   = flag.Int64("seed", 1, "simulation seed")
		protoN = flag.Int("proto-n", 20, "prototype daemon count (figs 14–15)")
	)
	flag.Parse()

	if !*all && *fig == 0 && *table == 0 {
		flag.Usage()
		os.Exit(2)
	}
	run := func(figNo int) bool { return *all || *fig == figNo }
	runTable := func(tableNo int) bool { return *all || *table == tableNo }

	if runTable(3) || runTable(4) {
		out, err := experiments.Tables34(20_000, *seed)
		exitIf(err)
		fmt.Println(out)
	}
	if run(6) {
		for _, nn := range pick(*n, []int{30, 100}) {
			for _, p := range trace.Profiles() {
				cfg := experiments.DefaultFig6Config(p, nn)
				cfg.Seed = *seed
				if *ops > 0 {
					cfg.Ops = *ops
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
			cfg.Seed = *seed
			if *ops > 0 {
				cfg.Ops = *ops
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
		cfg.Seed = *seed
		if *ops > 0 {
			cfg.Ops = *ops
			cfg.Interval = *ops / 6
		}
		if *n > 0 {
			cfg.N = *n
			cfg.M = analysis.PaperOptimalM(*n)
		}
		series, err := experiments.LatencyFig(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatLatencyFig(cfg, series))
	}
	if run(11) {
		rows, err := experiments.Fig11([]int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, *seed)
		exitIf(err)
		fmt.Println(experiments.FormatFig11(rows))
	}
	if run(12) {
		var rows []experiments.Fig12Row
		for _, nn := range pick(*n, []int{30, 100}) {
			for _, p := range trace.Profiles() {
				cfg := experiments.DefaultFig12Config(p, nn)
				cfg.Seed = *seed
				r, err := experiments.Fig12(cfg)
				exitIf(err)
				rows = append(rows, r...)
			}
		}
		fmt.Println(experiments.FormatFig12(rows))
	}
	if run(13) {
		cfg := experiments.DefaultFig13Config()
		cfg.Seed = *seed
		if *ops > 0 {
			cfg.Ops = *ops
		}
		rows, err := experiments.Fig13(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatFig13(rows))
	}
	if run(14) {
		cfg := experiments.DefaultFig14Config()
		cfg.N = *protoN
		cfg.Seed = *seed
		if *ops > 0 {
			cfg.Ops = *ops
			cfg.Interval = *ops / 4
		}
		series, err := experiments.Fig14(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatFig14(cfg, series))
	}
	if run(15) {
		m := 7
		rows, err := experiments.Fig15(*protoN, m, 10, *seed)
		exitIf(err)
		fmt.Println(experiments.FormatFig15(*protoN, m, rows))
	}
	if runTable(5) {
		rows, err := experiments.Table5([]int{20, 40, 60, 80, 100}, 2_000, *seed)
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
