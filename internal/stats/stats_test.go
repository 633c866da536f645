package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestWeightedMean(t *testing.T) {
	got := WeightedMean([]float64{1, 10}, []float64{9, 1})
	if !almostEqual(got, 1.9, 1e-12) {
		t.Fatalf("WeightedMean = %v, want 1.9", got)
	}
}

func TestWeightedMeanZeroWeight(t *testing.T) {
	if got := WeightedMean([]float64{5, 6}, []float64{0, 0}); got != 0 {
		t.Fatalf("WeightedMean with zero weights = %v, want 0", got)
	}
}

func TestWeightedMeanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Fatalf("Min = %v, %v; want -1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Fatalf("Max = %v, %v; want 7, nil", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v) error: %v", c.q, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestNearestRankSorted(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"n=1 q=0", []float64{42}, 0, 42},
		{"n=1 q=0.99", []float64{42}, 0.99, 42},
		{"n=1 q=1", []float64{42}, 1, 42},
		{"n=5 q=0 clamps to min", []float64{1, 2, 3, 4, 5}, 0, 1},
		{"n=5 q=0.5 ceil-rank", []float64{1, 2, 3, 4, 5}, 0.5, 3},
		{"n=5 q=0.21 rounds rank up", []float64{1, 2, 3, 4, 5}, 0.21, 2},
		{"n=5 q=1", []float64{1, 2, 3, 4, 5}, 1, 5},
		{"n=100 q=0.99", hundred, 0.99, 99},
		{"n=100 q=0.995", hundred, 0.995, 100},
	}
	for _, c := range cases {
		if got := NearestRankSorted(c.sorted, c.q); got != c.want {
			t.Errorf("%s: NearestRankSorted = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClampPct(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{-1e-12, 0}, {0, 0}, {42.5, 42.5}, {100, 100}, {100 + 1e-12, 100},
	} {
		if got := ClampPct(c.in); got != c.want {
			t.Errorf("ClampPct(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, 1e-12) {
		t.Fatalf("Quantile = %v, want 3", got)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Fatal("want range error for q<0")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Fatal("want range error for q>1")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Fatal("want range error for NaN")
	}
}

func TestQuantileSingleElement(t *testing.T) {
	got, err := Quantile([]float64{42}, 0.9)
	if err != nil || got != 42 {
		t.Fatalf("Quantile single = %v, %v", got, err)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestWeightedQuantileLECoverage(t *testing.T) {
	// Distances 1,2,3 with volumes 80,15,5: 90% coverage needs distance 2.
	xs := []float64{1, 2, 3}
	ws := []float64{80, 15, 5}
	got, err := WeightedQuantileLE(xs, ws, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("WeightedQuantileLE = %v, want 2", got)
	}
}

func TestWeightedQuantileLEExactBoundary(t *testing.T) {
	// 90% exactly covered at value 1.
	got, err := WeightedQuantileLE([]float64{1, 2}, []float64{90, 10}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("exact boundary = %v, want 1", got)
	}
}

func TestWeightedQuantileLEIgnoresZeroWeights(t *testing.T) {
	got, err := WeightedQuantileLE([]float64{100, 1}, []float64{0, 5}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
}

func TestWeightedQuantileLEErrors(t *testing.T) {
	if _, err := WeightedQuantileLE([]float64{1}, []float64{0}, 0.9); err != ErrEmpty {
		t.Fatalf("zero total weight: want ErrEmpty, got %v", err)
	}
	if _, err := WeightedQuantileLE([]float64{1}, []float64{-1}, 0.9); err == nil {
		t.Fatal("negative weight should error")
	}
	if _, err := WeightedQuantileLE([]float64{1}, []float64{1}, 2); err == nil {
		t.Fatal("q out of range should error")
	}
}

func TestCoverageCount(t *testing.T) {
	cases := []struct {
		ws   []float64
		q    float64
		want int
	}{
		{[]float64{50, 30, 15, 5}, 0.9, 3},
		{[]float64{90, 10}, 0.9, 1},
		{[]float64{89, 11}, 0.9, 2},
		{[]float64{1, 1, 1, 1}, 1.0, 4},
		{[]float64{100}, 0.9, 1},
		{nil, 0.9, 0},
		{[]float64{0, 0}, 0.9, 0},
	}
	for _, c := range cases {
		if got := CoverageCount(c.ws, c.q); got != c.want {
			t.Errorf("CoverageCount(%v, %v) = %d, want %d", c.ws, c.q, got, c.want)
		}
	}
}

func TestCoverageCountOrderIndependent(t *testing.T) {
	a := []float64{5, 30, 50, 15}
	b := []float64{50, 30, 15, 5}
	if CoverageCount(a, 0.9) != CoverageCount(b, 0.9) {
		t.Fatal("CoverageCount should be order independent")
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 11} {
		h.Add(x)
	}
	if h.N() != 7 {
		t.Fatalf("N = %d, want 7", h.N())
	}
	if h.Underflow() != 1 {
		t.Fatalf("Underflow = %d, want 1", h.Underflow())
	}
	if h.Overflow() != 2 {
		t.Fatalf("Overflow = %d, want 2", h.Overflow())
	}
	counts := h.Counts()
	if counts[0] != 2 { // 0 and 1.9
		t.Fatalf("bin0 = %d, want 2", counts[0])
	}
	if counts[1] != 1 { // 2
		t.Fatalf("bin1 = %d, want 1", counts[1])
	}
	if counts[4] != 1 { // 9.99
		t.Fatalf("bin4 = %d, want 1", counts[4])
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("zero bins should error")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("empty range should error")
	}
	if _, err := NewHistogram(6, 5, 3); err == nil {
		t.Fatal("inverted range should error")
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); got != 1 {
		t.Fatalf("BinCenter(0) = %v, want 1", got)
	}
	if got := h.BinCenter(4); got != 9 {
		t.Fatalf("BinCenter(4) = %v, want 9", got)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 || s.Mean != 5 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Fatalf("median = %v, want 4.5", s.Median)
	}
	// Sample stddev of that classic set is sqrt(32/7).
	if !almostEqual(s.StdDev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if s.StdDev != 0 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("unexpected %+v", s)
	}
}

func TestCumulativeShares(t *testing.T) {
	got := CumulativeShares([]float64{10, 30, 60})
	want := []float64{0.6, 0.9, 1.0}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("share[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCumulativeSharesEmpty(t *testing.T) {
	if got := CumulativeShares(nil); got != nil {
		t.Fatalf("want nil, got %v", got)
	}
	if got := CumulativeShares([]float64{0}); got != nil {
		t.Fatalf("want nil for all-zero, got %v", got)
	}
}

// Property: quantile of any sample lies within [min, max].
func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, qraw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qraw%101) / 100
		got, err := Quantile(xs, q)
		if err != nil {
			return false
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return got >= mn-1e-9 && got <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CoverageCount is monotone non-decreasing in q.
func TestCoverageCountMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		ws := make([]float64, len(raw))
		for i, r := range raw {
			ws[i] = float64(r)
		}
		prev := 0
		for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
			c := CoverageCount(ws, q)
			if c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WeightedQuantileLE result is always one of the input values and
// covers at least q of the weight.
func TestWeightedQuantileLECoversProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		ws := make([]float64, n)
		var total float64
		for i := range xs {
			xs[i] = float64(rng.Intn(100))
			ws[i] = float64(rng.Intn(50))
			total += ws[i]
		}
		if total == 0 {
			continue
		}
		q := rng.Float64()
		v, err := WeightedQuantileLE(xs, ws, q)
		if err != nil {
			t.Fatal(err)
		}
		var cum float64
		for i := range xs {
			if xs[i] <= v {
				cum += ws[i]
			}
		}
		if cum+1e-9 < q*total {
			t.Fatalf("coverage %v < q*total %v (v=%v xs=%v ws=%v)", cum, q*total, v, xs, ws)
		}
	}
}

// Property: CumulativeShares is monotone and ends at 1.
func TestCumulativeSharesMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		ws := make([]float64, len(raw))
		anyPos := false
		for i, r := range raw {
			ws[i] = float64(r)
			if r > 0 {
				anyPos = true
			}
		}
		shares := CumulativeShares(ws)
		if !anyPos {
			return shares == nil
		}
		if !sort.Float64sAreSorted(shares) {
			return false
		}
		return almostEqual(shares[len(shares)-1], 1.0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceVariantsMatchOriginals cross-checks the allocation-free
// in-place quantile and coverage-count against the copying originals on
// random data (including zero weights, which both must drop) across a
// spread of quantiles. The in-place variants may permute their inputs,
// so each call gets a fresh copy.
func TestInPlaceVariantsMatchOriginals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64()*100) / 10
			if rng.Intn(4) == 0 {
				ws[i] = 0 // zero-weight samples must be dropped identically
			} else {
				ws[i] = rng.Float64() * 10
			}
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 1} {
			want, wantErr := WeightedQuantileLE(append([]float64(nil), xs...), append([]float64(nil), ws...), q)
			got, gotErr := WeightedQuantileLEInPlace(append([]float64(nil), xs...), append([]float64(nil), ws...), q)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d q=%g: error mismatch: %v vs %v", trial, q, wantErr, gotErr)
			}
			if wantErr == nil && got != want {
				t.Fatalf("trial %d q=%g: WeightedQuantileLEInPlace = %v, want %v (xs=%v ws=%v)",
					trial, q, got, want, xs, ws)
			}
			wantC := CoverageCount(append([]float64(nil), ws...), q)
			gotC := CoverageCountInPlace(append([]float64(nil), ws...), q)
			if gotC != wantC {
				t.Fatalf("trial %d q=%g: CoverageCountInPlace = %d, want %d (ws=%v)",
					trial, q, gotC, wantC, ws)
			}
		}
	}
}
