package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n, p int
		want float64
	}{
		{1000, 50, 500},
		{1000, 99, 990},
		{1000, 90, 900},
		{100, 90, 90},
		{128, 90, 116}, // ceil(115.2)
		{128, 50, 64},
		{1, 99, 1},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("p%d of 1..%d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestTenSamplesBeyondPercentile(t *testing.T) {
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := beyond(999, 99); got != 9 {
		t.Errorf("beyond(999, 99) = %d, want 9", got)
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	if got := beyond(99, 90); got != 9 {
		t.Errorf("beyond(99, 90) = %d, want 9", got)
	}
	// The workloads' fixed counts clear the bar.
	if got := beyond(corpusMinPasses*90, 99); got < 10 {
		t.Errorf("%d corpus passes leave %d samples beyond p99", corpusMinPasses, got)
	}
	if got := beyond(batchUpdates, 90); got < 10 {
		t.Errorf("%d batch updates leave %d samples beyond p90", batchUpdates, got)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v", got)
	}
}

func TestGeomeanOfPerTemplateMedians(t *testing.T) {
	samples := map[string][]float64{
		"LQ1": {1, 2, 100}, // median 2: one slow sample does not move it
		"LQ3": {8, 8},
		"LQ4": {0.5, 0.5, 0.5, 1000},
	}
	meds := groupMedians(samples)
	if meds["LQ1"] != 2 || meds["LQ3"] != 8 || meds["LQ4"] != 0.5 {
		t.Fatalf("group medians = %v", meds)
	}
	if got := geomeanOfMedians(samples); math.Abs(got-2) > 1e-12 { // (2*8*0.5)^(1/3)
		t.Errorf("geomean of medians = %v, want 2", got)
	}
}

// TestQuartilesMatchPython pins the interpolation to Python's
// statistics.quantiles(data, n=4), which the steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},                                    // quantiles(range(1, 11), n=4)
		{[]float64{1, 2}, 0.75, 1.5, 2.25},                            // extrapolated ends
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},                       // odd count
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.8, 1.2}, 0.875, 1.05, 1.225}, // six runs
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
