package main

import (
	"io"
	"math"
	"strings"
	"testing"

	"netloc/internal/core"
)

// A non-finite -growth is rejected up front, before any simulation:
// NaN used to disable the sweep silently and +Inf to run every probe.
func TestRunRejectsNonFiniteGrowth(t *testing.T) {
	refs := []core.WorkloadRef{{App: "LULESH", Ranks: 64}}
	for _, g := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, asJSON := range []bool{false, true} {
			err := run(io.Discard, refs, []string{"torus"}, []string{"minimal"}, g, core.Options{Parallelism: 1}, false, asJSON)
			if err == nil || !strings.Contains(err.Error(), "-growth") {
				t.Errorf("growth %g (json %v): err = %v, want a -growth error", g, asJSON, err)
			}
		}
	}
}

// A small finite run renders one row per policy.
func TestRunSmallGrid(t *testing.T) {
	var out strings.Builder
	refs := []core.WorkloadRef{{App: "LULESH", Ranks: 64}}
	if err := run(&out, refs, []string{"torus"}, []string{"minimal", "ugal"}, 5, core.Options{Parallelism: 1}, true, false); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(out.String()), "\n"); lines != 2 {
		t.Errorf("csv has %d data lines, want 2:\n%s", lines, out.String())
	}
}
