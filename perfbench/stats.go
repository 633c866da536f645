package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count), as Python's statistics.median does. NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the spread this tool prints is the one the benchmark's
// acceptance check computes. One sample gives that sample for both.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailLadder lists the percentiles a tail may fall back to, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the want-th percentile of xs (nearest rank) when at least
// ten samples lie beyond it; otherwise it falls back down tailLadder to
// the highest percentile that has ten samples beyond it. It reports the
// percentile used and the number of samples beyond it; ok is false when
// even the median has fewer than ten samples beyond it.
func tail(xs []float64, want float64) (v, pct float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return s[rank-1], p, n - rank, true
		}
	}
	return math.NaN(), 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
