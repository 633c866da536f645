package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	wide := []float64{0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0}
	for _, c := range []struct {
		name          string
		spec          metricSpec
		before, after []float64
		want          string
	}{
		{"identical runs are ties, not wins", lower, steady, steady, verdictNoWorse},
		{"20% faster in every pair", lower, steady, scaled(steady, 0.8), verdictImproved},
		{"higher-is-better metric 20% up", higher, steady, scaled(steady, 1.2), verdictImproved},
		{"higher-is-better metric 20% down", higher, steady, scaled(steady, 0.8), verdictWorse},
		{"5% slower stays within a 10% bound", lower, steady, scaled(steady, 1.05), verdictNoWorse},
		{"20% slower exceeds the bound", lower, steady, scaled(steady, 1.2), verdictWorse},
		{"spread wider than the bound", lower, wide, scaled(wide, 1.02), verdictUnresolved},
		{"wide but every run better is not unresolved", lower, scaled(steady, 1.5), scaled(steady, 0.7), verdictImproved},
		{"unbounded count that repeats exactly", metricSpec{Name: "n", Unit: "count", Better: "lower"},
			[]float64{7, 7, 7}, []float64{7, 7, 7}, verdictNoWorse},
		{"unbounded count that grew", metricSpec{Name: "n", Unit: "count", Better: "lower"},
			[]float64{7, 7, 7}, []float64{8, 8, 8}, verdictWorse},
		{"unbounded noisy time", metricSpec{Name: "x_s", Unit: "s", Better: "lower"},
			steady, scaled(steady, 1.01), verdictUnresolved},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, wins, pairs := verdict(c.spec, c.before, c.after, c.before, c.after)
			if got != c.want {
				t.Errorf("verdict = %q (wins %d/%d), want %q", got, wins, pairs, c.want)
			}
		})
	}
}

func TestImprovedNeedsNineTenthsOfPairs(t *testing.T) {
	spec := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.5}
	before := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	after := []float64{8, 8, 8, 8, 8, 8, 8, 8, 8, 8}
	if v, wins, _ := verdict(spec, before, after, before, after); v != verdictImproved || wins != 10 {
		t.Fatalf("10/10 wins: verdict %q, wins %d", v, wins)
	}
	after[0], after[1] = 12, 12 // 8 of 10 pairs won
	if v, wins, _ := verdict(spec, before, after, before, after); v == verdictImproved || wins != 8 {
		t.Fatalf("8/10 wins: verdict %q, wins %d; want not improved", v, wins)
	}
}

func writeRun(t *testing.T, dir string, r record) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, r.Workload+"-"+string(rune('a'+r.Seed))+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRowsPerWorkload(t *testing.T) {
	before, after := t.TempDir(), t.TempDir()
	for seed := int64(0); seed < 10; seed++ {
		for _, wl := range []string{wlPaper, wlNetlocd} {
			m := map[string]metricValue{"wall_s": {Value: 2 + float64(seed%3)*0.01, Unit: "s"}}
			writeRun(t, before, record{Workload: wl, Seed: seed, Metrics: m})
			if wl == wlPaper {
				m = map[string]metricValue{"wall_s": {Value: 1.5 + float64(seed%3)*0.01, Unit: "s"}}
			}
			writeRun(t, after, record{Workload: wl, Seed: seed, Metrics: m})
		}
	}
	var out bytes.Buffer
	if err := compareMain(&out, []string{before, after}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and one row per workload, got:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[1], wlNetlocd) || !strings.HasSuffix(lines[1], verdictNoWorse) {
		t.Errorf("netlocd row: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], wlPaper) || !strings.Contains(lines[2], "10/10") || !strings.HasSuffix(lines[2], verdictImproved) {
		t.Errorf("paper-grid row: %q", lines[2])
	}
}
