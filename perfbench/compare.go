package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// The comparison tool: `perfbench compare <before> <after>` reads the run
// ledgers of two result sets (directories of records, as written under
// --out/runs) and prints, per workload and metric, each side's median
// and quartiles, the pairs the after side won, and a verdict.
//
// Verdicts follow the measuring rule the benchmark was built to:
//   - improved: the after side wins at least nine tenths of the pairs
//     (ties count for neither) and the medians differ, in the better
//     direction, by more than the before side's quartile spread;
//   - unresolved: either side's quartile spread, as a share of the
//     before median, is wider than the metric's bound, and not every
//     after run reads better than every before run;
//   - worse: the after median is worse than the before median by more
//     than the bound;
//   - no worse: otherwise.
//
// Runs pair up by seed when both sides ran the same seeds, otherwise in
// seed order.

// Verdicts.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func compareMain(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare <before-dir> <after-dir>")
	}
	before, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	after, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	rows := compareSets(before, after)
	if len(rows) == 0 {
		return errors.New("the two result sets share no workload and metric")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbefore median [q1, q3]\tafter median [q1, q3]\twins/pairs\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\n", r.Workload, r.Metric, r.Unit,
			r.Before, r.After, r.Wins, r.Pairs, r.Verdict)
	}
	return tw.Flush()
}

// loadRecords reads every ledger record in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no run records (*.json) in %s", dir)
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// summary is one side's distribution of a metric.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func (s summary) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// comparison is one output row.
type comparison struct {
	Workload, Metric, Unit string
	Before, After          summary
	Wins, Pairs            int
	Verdict                string
}

// compareSets compares every (workload, metric) both sets measured. The
// traced run, which covers all workloads, files under "traced".
func compareSets(before, after []record) []comparison {
	group := func(rs []record) map[string][]record {
		g := map[string][]record{}
		for _, r := range rs {
			k := r.Workload
			if r.Trace {
				k = "traced"
			}
			g[k] = append(g[k], r)
		}
		for _, v := range g {
			sort.Slice(v, func(i, j int) bool { return v[i].Seed < v[j].Seed })
		}
		return g
	}
	gb, ga := group(before), group(after)
	var keys []string
	for k := range gb {
		if _, ok := ga[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []comparison
	for _, k := range keys {
		rb, ra := gb[k], ga[k]
		names := map[string]bool{}
		for _, r := range rb {
			for n := range r.Metrics {
				names[n] = true
			}
		}
		var sorted []string
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			spec, ok := specOf(n)
			if !ok {
				continue
			}
			pb, pa := pairRuns(rb, ra, n)
			if len(pb) == 0 {
				continue
			}
			c := comparison{Workload: k, Metric: n, Unit: spec.Unit,
				Before: summarize(values(rb, n)), After: summarize(values(ra, n))}
			c.Verdict, c.Wins, c.Pairs = verdict(spec, values(rb, n), values(ra, n), pb, pa)
			out = append(out, c)
		}
	}
	return out
}

func values(rs []record, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// pairRuns returns the metric's values of paired runs: by seed when the
// sides share seeds, otherwise in seed order.
func pairRuns(before, after []record, name string) (pb, pa []float64) {
	bySeed := map[int64]float64{}
	for _, r := range after {
		if m, ok := r.Metrics[name]; ok {
			bySeed[r.Seed] = m.Value
		}
	}
	for _, r := range before {
		m, ok := r.Metrics[name]
		if v, shared := bySeed[r.Seed]; ok && shared {
			pb, pa = append(pb, m.Value), append(pa, v)
		}
	}
	if len(pb) > 0 {
		return pb, pa
	}
	vb, va := values(before, name), values(after, name)
	n := min(len(vb), len(va))
	return vb[:n], va[:n]
}

// verdict applies the rule in the file comment to one metric.
func verdict(spec metricSpec, before, after, pb, pa []float64) (v string, wins, pairs int) {
	better := func(x, y float64) bool {
		if spec.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs = len(pb)
	for i := range pb {
		if better(pa[i], pb[i]) {
			wins++
		}
	}
	mb, ma := median(before), median(after)
	qb1, qb3 := quartiles(before)
	qa1, qa3 := quartiles(after)
	if pairs > 0 && 10*wins >= 9*pairs && better(ma, mb) && math.Abs(ma-mb) > qb3-qb1 {
		return verdictImproved, wins, pairs
	}
	scale := math.Abs(mb)
	if scale == 0 {
		scale = 1
	}
	spread := math.Max(qb3-qb1, qa3-qa1) / scale
	if spread > spec.Bound && !allBetter(after, before, better) {
		return verdictUnresolved, wins, pairs
	}
	worseBy := (ma - mb) / scale
	if spec.Better == "higher" {
		worseBy = -worseBy
	}
	if worseBy > spec.Bound {
		return verdictWorse, wins, pairs
	}
	return verdictNoWorse, wins, pairs
}

// allBetter reports whether every value of xs is better than every value
// of ys.
func allBetter(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(xs) > 0 && len(ys) > 0
}
