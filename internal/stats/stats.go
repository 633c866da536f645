// Package stats provides small numeric helpers used throughout the
// locality analyses: weighted and unweighted quantiles, histograms, and
// summary statistics.
//
// All functions are pure and deterministic. Weighted variants operate on
// parallel value/weight slices; weights must be non-negative and are not
// required to sum to one.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// WeightedMean returns the mean of xs weighted by ws. It returns 0 when the
// total weight is zero. Panics if the slices differ in length.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic(fmt.Sprintf("stats: length mismatch %d != %d", len(xs), len(ws)))
	}
	var s, w float64
	for i, x := range xs {
		s += x * ws[i]
		w += ws[i]
	}
	if w == 0 {
		return 0
	}
	return s / w
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the same convention as numpy's
// default). The input need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// NearestRankSorted returns the q-quantile of an ascending-sorted,
// non-empty slice by the nearest-rank (ceil-rank) rule: the element at
// 1-based rank ceil(q·n), with the index clamped at 0 so q = 0 yields the
// minimum. No interpolation, so the result is always a sample.
func NearestRankSorted(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ClampPct bounds a percentage to [0, 100]. Busy-time shares never truly
// exceed the makespan, but float accumulation can overshoot by ulps.
func ClampPct(v float64) float64 {
	if v > 100 {
		return 100
	}
	if v < 0 {
		return 0
	}
	return v
}

// WeightedQuantileLE returns the smallest value v among xs such that the
// total weight of samples with value <= v reaches at least q of the total
// weight. This "coverage" definition is the one used by the paper's 90%
// rules: e.g. the smallest rank distance covering 90% of traffic.
//
// Samples with zero weight are ignored. Returns ErrEmpty when the total
// weight is zero.
func WeightedQuantileLE(xs, ws []float64, q float64) (float64, error) {
	if len(xs) != len(ws) {
		panic(fmt.Sprintf("stats: length mismatch %d != %d", len(xs), len(ws)))
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	type vw struct{ v, w float64 }
	pairs := make([]vw, 0, len(xs))
	var total float64
	for i, x := range xs {
		if ws[i] < 0 {
			return 0, fmt.Errorf("stats: negative weight %v", ws[i])
		}
		if ws[i] == 0 {
			continue
		}
		pairs = append(pairs, vw{x, ws[i]})
		total += ws[i]
	}
	if total == 0 {
		return 0, ErrEmpty
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	target := q * total
	var cum float64
	for _, p := range pairs {
		cum += p.w
		// A tiny epsilon guards against float accumulation error when q
		// lands exactly on a step boundary.
		if cum >= target-1e-9*total {
			return p.v, nil
		}
	}
	return pairs[len(pairs)-1].v, nil
}

// WeightedQuantileLEInPlace is WeightedQuantileLE for callers that own the
// input slices: xs and ws are compacted and sorted in place (zero-weight
// samples dropped, then ordered by value ascending) instead of copying into
// a scratch pair slice. The per-rank metric loops call this once per rank
// on reused scratch buffers, so it must not allocate.
func WeightedQuantileLEInPlace(xs, ws []float64, q float64) (float64, error) {
	if len(xs) != len(ws) {
		panic(fmt.Sprintf("stats: length mismatch %d != %d", len(xs), len(ws)))
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	n := 0
	var total float64
	for i, w := range ws {
		if w < 0 {
			return 0, fmt.Errorf("stats: negative weight %v", w)
		}
		if w == 0 {
			continue
		}
		xs[n], ws[n] = xs[i], w
		n++
		total += w
	}
	if total == 0 {
		return 0, ErrEmpty
	}
	xs, ws = xs[:n], ws[:n]
	sortPairsByValue(xs, ws)
	target := q * total
	var cum float64
	for i, w := range ws {
		cum += w
		// A tiny epsilon guards against float accumulation error when q
		// lands exactly on a step boundary.
		if cum >= target-1e-9*total {
			return xs[i], nil
		}
	}
	return xs[n-1], nil
}

// sortPairsByValue sorts the parallel (value, weight) slices by value
// ascending without going through sort.Interface (whose reflect-based
// swapper allocates per call). Ties keep an unspecified weight order, which
// cannot change any coverage result: the crossing value is the same
// whichever equal-valued sample tips the cumulative sum.
func sortPairsByValue(v, w []float64) {
	for len(v) > 12 {
		// Median-of-three pivot, then recurse into the smaller partition
		// so stack depth stays logarithmic.
		mid := len(v) / 2
		last := len(v) - 1
		if v[mid] < v[0] {
			v[mid], v[0] = v[0], v[mid]
			w[mid], w[0] = w[0], w[mid]
		}
		if v[last] < v[0] {
			v[last], v[0] = v[0], v[last]
			w[last], w[0] = w[0], w[last]
		}
		if v[last] < v[mid] {
			v[last], v[mid] = v[mid], v[last]
			w[last], w[mid] = w[mid], w[last]
		}
		pivot := v[mid]
		i, j := 0, last
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				w[i], w[j] = w[j], w[i]
				i++
				j--
			}
		}
		if j+1 < len(v)-i {
			sortPairsByValue(v[:j+1], w[:j+1])
			v, w = v[i:], w[i:]
		} else {
			sortPairsByValue(v[i:], w[i:])
			v, w = v[:j+1], w[:j+1]
		}
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
}

// CoverageCount returns how many of the largest weights are needed so that
// their sum reaches at least q of the total weight. This implements the
// paper's selectivity rule: partners sorted by volume descending, count
// until 90% of the rank's volume is covered.
//
// Zero weights are ignored; if the total weight is zero the count is zero.
func CoverageCount(ws []float64, q float64) int {
	s := make([]float64, 0, len(ws))
	var total float64
	for _, w := range ws {
		if w > 0 {
			s = append(s, w)
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	target := q * total
	var cum float64
	for i, w := range s {
		cum += w
		if cum >= target-1e-9*total {
			return i + 1
		}
	}
	return len(s)
}

// CoverageCountInPlace is CoverageCount for callers that own ws: the slice
// is compacted and sorted in place (ascending, then walked backwards for
// the descending accumulation) so the per-rank selectivity loop allocates
// nothing.
func CoverageCountInPlace(ws []float64, q float64) int {
	n := 0
	var total float64
	for _, w := range ws {
		if w > 0 {
			ws[n] = w
			n++
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	ws = ws[:n]
	sort.Float64s(ws)
	target := q * total
	var cum float64
	for i := n - 1; i >= 0; i-- {
		cum += ws[i]
		if cum >= target-1e-9*total {
			return n - i
		}
	}
	return n
}

// Histogram is a fixed-bin histogram over float64 samples.
type Histogram struct {
	lo, hi   float64
	binWidth float64
	counts   []uint64
	under    uint64
	over     uint64
	n        uint64
}

// NewHistogram creates a histogram with the given number of equal-width bins
// spanning [lo, hi). Samples below lo or at/above hi are tracked in
// underflow/overflow counters.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: bins must be positive, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: invalid range [%v, %v)", lo, hi)
	}
	return &Histogram{
		lo:       lo,
		hi:       hi,
		binWidth: (hi - lo) / float64(bins),
		counts:   make([]uint64, bins),
	}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.binWidth)
		if i >= len(h.counts) { // float edge case at hi boundary
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// N returns the total number of samples recorded, including under/overflow.
func (h *Histogram) N() uint64 { return h.n }

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []uint64 {
	return append([]uint64(nil), h.counts...)
}

// Underflow returns the number of samples below the histogram range.
func (h *Histogram) Underflow() uint64 { return h.under }

// Overflow returns the number of samples at or above the histogram range.
func (h *Histogram) Overflow() uint64 { return h.over }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + (float64(i)+0.5)*h.binWidth
}

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	mean := Mean(xs)
	med, _ := Quantile(xs, 0.5)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := 0.0
	if len(xs) > 1 {
		sd = math.Sqrt(ss / float64(len(xs)-1))
	}
	return Summary{N: len(xs), Min: mn, Max: mx, Mean: mean, Median: med, StdDev: sd}, nil
}

// CumulativeShares converts a descending-sorted (or any) weight slice into
// cumulative shares of the total, after sorting descending. The result has
// the same length as the positive-weight subset of ws and is monotone
// non-decreasing, ending at 1 (when any weight is positive). This is the
// series plotted in the paper's Figure 3 / Figure 4 selectivity curves.
func CumulativeShares(ws []float64) []float64 {
	s := make([]float64, 0, len(ws))
	var total float64
	for _, w := range ws {
		if w > 0 {
			s = append(s, w)
			total += w
		}
	}
	if total == 0 {
		return nil
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	out := make([]float64, len(s))
	var cum float64
	for i, w := range s {
		cum += w
		out[i] = cum / total
	}
	return out
}
