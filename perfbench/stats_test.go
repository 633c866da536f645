package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{5, 1, 3}, 3, 1, 5},
		{[]float64{2, 2}, 2, 2, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.med)
		}
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		pct    float64
		beyond int
		ok     bool
	}{
		{1000, 99, 99, 10, true},   // rank 990: exactly ten beyond
		{999, 99, 95, 49, true},    // p99 would leave 9 beyond
		{100, 90, 90, 10, true},    // rank 90
		{99, 90, 75, 24, true},     // p90 would leave 9 beyond
		{2000, 50, 50, 1000, true}, // the median is its own tail
		{20, 99, 50, 10, true},     // falls all the way to the median
		{19, 99, 0, 0, false},      // even the median has only 9 beyond
	} {
		v, pct, beyond, ok := tail(seq(c.n), c.want)
		if ok != c.ok || pct != c.pct || beyond != c.beyond {
			t.Errorf("tail(n=%d, p%g) = p%g beyond=%d ok=%v, want p%g beyond=%d ok=%v",
				c.n, c.want, pct, beyond, ok, c.pct, c.beyond, c.ok)
			continue
		}
		if ok && int(v) != c.n-c.beyond {
			t.Errorf("tail(n=%d, p%g) = %g, want the value with %d samples above it", c.n, c.want, v, c.beyond)
		}
	}
}
