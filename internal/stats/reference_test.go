package stats

import (
	"fmt"
	"math"
	"sort"
)

// Reference implementations. WeightedQuantileLE and CoverageCount are the
// straightforward copying forms of the in-place coverage helpers and serve
// as their oracles; the descriptive statistics and the histogram have no
// caller in the analyses and are kept here with the tests that pin them.

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
