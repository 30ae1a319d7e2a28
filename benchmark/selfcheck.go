package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// selfCheck runs the full untraced set twice in one invocation, the second
// time in reverse workload order, and holds the two against each metric's
// bound: a metric that cannot agree with itself cannot arbitrate a change.
// Both sets are written to out/ for checking in as a baseline.
func selfCheck(cfg runCfg, stdout, stderr io.Writer) int {
	cfg.traced = false
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	var sets [2]*resultSet
	for i, order := range [][]string{names, reversed} {
		b, err := newBench(cfg, io.Discard)
		if err == nil {
			sets[i], err = b.runAll(order)
		}
		if err == nil {
			err = writeJSON(filepath.Join(outDir, fmt.Sprintf("selfcheck-%c.json", 'a'+i)), sets[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return compareSets(sets[0], sets[1], stdout)
}

// worsening is how much worse b is than a as a share of a, positive when
// worse, for a metric with the given direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and end-to-end metric, the relative
// difference of two result sets against the bound, both ways round: neither
// set may be worse than the other by more than the bound.
func compareSets(a, b *resultSet, w io.Writer) int {
	byName := map[string]*outcome{}
	for _, o := range b.Outcomes {
		byName[o.Workload] = o
	}
	breaches := 0
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, oa := range a.Outcomes {
		ob := byName[oa.Workload]
		if ob == nil {
			continue
		}
		if !oa.Correct || !ob.Correct {
			fmt.Fprintf(w, "%-20s FAILED operations: %d and %d\n", oa.Workload, oa.Failed, ob.Failed)
			breaches++
		}
		for _, d := range endToEnd {
			va, vb := oa.Metrics[d.Name].Value, ob.Metrics[d.Name].Value
			diff := max(worsening(va, vb, d.Better), worsening(vb, va, d.Better))
			mark := ""
			if diff > d.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-20s %-14s %14.6g %14.6g %7.1f%% %6.0f%%%s\n", oa.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	return 0
}
