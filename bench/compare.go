package main

import (
	"errors"
	"fmt"
	"io"
)

// verdict is -compare's judgement of one (metric, workload) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	// verdictUnresolved: the medians are within the bound, but one side's
	// own run-to-run spread is wider than the bound, so "unchanged" would
	// claim more than the runs can show.
	verdictUnresolved verdict = "unresolved"
)

// allowance is how far the metric's median may worsen before it counts as a
// regression, as a share of the old median: the relative bound, or the
// absolute floor where that is the larger.
func (m metricDef) allowance(oldMedian float64) float64 {
	return max(m.Bound, m.Floor/oldMedian)
}

// judge applies the regression rule to one metric: a regression if the
// median worsened by more than the allowance; otherwise unresolved if either
// side's interquartile spread exceeds the allowance; otherwise ok. It also
// returns the worsening as a share of the old median (negative = improved).
// checkComparable has made sure that both medians exist and are not zero.
func judge(m metricDef, old, cur series) (verdict, float64) {
	worse := (cur.Median - old.Median) / old.Median
	if m.Better == "higher" {
		worse = -worse
	}
	allow := m.allowance(old.Median)
	switch {
	case worse > allow:
		return verdictRegression, worse
	case spread(old.Values) > allow || spread(cur.Values) > allow:
		return verdictUnresolved, worse
	}
	return verdictOK, worse
}

// judgeFailures is the rule for failed_ops_share, whose bound is absolute
// and zero: any failed operation the old record did not have is a regression.
func judgeFailures(old, cur series) verdict {
	if cur.Median > old.Median || maxOf(cur.Values) > maxOf(old.Values) {
		return verdictRegression
	}
	return verdictOK
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// checkComparable refuses pairs of records that do not measure the same
// thing on the same kind of machine, or that do not hold every series the
// rule needs: a metric missing from one side must not read as an improvement
// to zero.
func checkComparable(old, cur record) error {
	switch {
	case old.Env.CPUs != cur.Env.CPUs || old.Env.GOMAXPROCS != cur.Env.GOMAXPROCS:
		return fmt.Errorf("records taken on %d CPUs (GOMAXPROCS %d) and %d CPUs (GOMAXPROCS %d)",
			old.Env.CPUs, old.Env.GOMAXPROCS, cur.Env.CPUs, cur.Env.GOMAXPROCS)
	case old.Env.WALFS != cur.Env.WALFS:
		return fmt.Errorf("records logged to %s and %s: the TCP workloads measure the disk", old.Env.WALFS, cur.Env.WALFS)
	case old.Seed != cur.Seed || old.Runs != cur.Runs:
		return fmt.Errorf("records use seeds %d+%d and %d+%d", old.Seed, old.Runs, cur.Seed, cur.Runs)
	case old.Seconds != cur.Seconds:
		return fmt.Errorf("records ran %g and %g seconds", old.Seconds, cur.Seconds)
	case len(old.Workloads) != len(cur.Workloads):
		return fmt.Errorf("records hold %d and %d workloads", len(old.Workloads), len(cur.Workloads))
	}
	for i, w := range old.Workloads {
		c := cur.Workloads[i]
		if w.Name != c.Name || w.Definition != c.Definition {
			return fmt.Errorf("workload %d differs:\n  old %s: %s\n  new %s: %s", i, w.Name, w.Definition, c.Name, c.Definition)
		}
		for side, rec := range map[string]record{"old": old, "new": cur} {
			wr := rec.Workloads[i]
			if s := wr.EndToEnd[failedOpsShare]; len(s.Values) != rec.Runs {
				return fmt.Errorf("%s record, %s: %d values of %s for %d runs", side, w.Name, len(s.Values), failedOpsShare, rec.Runs)
			}
			for _, m := range endToEnd {
				if s := wr.EndToEnd[m.Name]; len(s.Values) != rec.Runs || !(s.Median > 0) {
					return fmt.Errorf("%s record, %s: %s has %d values for %d runs, median %v", side, w.Name, m.Name, len(s.Values), rec.Runs, s.Median)
				}
			}
		}
	}
	return nil
}

// errRegression is returned (and turned into a non-zero exit) when at least
// one pair regressed.
var errRegression = errors.New("regression")

// compareRecords prints one row per (workload, end-to-end metric) pair.
func compareRecords(w io.Writer, old, cur record) error {
	if err := checkComparable(old, cur); err != nil {
		return fmt.Errorf("not comparable: %w", err)
	}
	fmt.Fprintf(w, "old: rev %s, %s, %d CPUs, wal on %s\nnew: rev %s, %s, %d CPUs, wal on %s\n",
		old.Env.GitRev, old.Env.Go, old.Env.CPUs, old.Env.WALFS, cur.Env.GitRev, cur.Env.Go, cur.Env.CPUs, cur.Env.WALFS)
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "worse", "bound", "old iqr", "new iqr", "verdict")
	regressions := 0
	for i, ow := range old.Workloads {
		cw := cur.Workloads[i]
		for _, m := range endToEnd {
			o, c := ow.EndToEnd[m.Name], cw.EndToEnd[m.Name]
			v, worse := judge(m, o, c)
			note := ""
			switch {
			case m.Demoted:
				note = " (demoted: gates nothing)"
			case v == verdictRegression:
				regressions++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %+7.1f%% %6.1f%% %7.1f%% %7.1f%%  %s%s\n",
				ow.Name, m.Name, o.Median, c.Median, worse*100, m.allowance(o.Median)*100, spread(o.Values)*100, spread(c.Values)*100, v, note)
		}
		o, c := ow.EndToEnd[failedOpsShare], cw.EndToEnd[failedOpsShare]
		v := judgeFailures(o, c)
		if v == verdictRegression {
			regressions++
		}
		fmt.Fprintf(w, "%-20s %-18s %14.6f %14.6f %8s %7s %8s %8s  %s\n", ow.Name, failedOpsShare, maxOf(o.Values), maxOf(c.Values), "", "0", "", "", v)
	}
	if regressions > 0 {
		return fmt.Errorf("%d %w(s)", regressions, errRegression)
	}
	return nil
}

// compareFiles is the -compare entry point.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return err
	}
	return compareRecords(w, old, cur)
}
