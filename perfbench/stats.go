package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in whole
// percent) of xs: the smallest sample with at least p% of the samples
// at or below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p int) float64 {
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples, ceil(p*n/100), in integer arithmetic so 99% of 1000 is
// exactly 990.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is the number of samples ranked strictly above the p-th
// percentile among n samples.
func beyond(n, p int) int { return n - rank(n, p) }

// median returns the middle of xs (the mean of the two middle samples
// when len(xs) is even).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// groupMedians returns the median of each key's samples.
func groupMedians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}

// geomeanOfMedians is the geometric mean, over keys, of each key's
// median sample.
func geomeanOfMedians(samples map[string][]float64) float64 {
	meds := groupMedians(samples)
	xs := make([]float64, 0, len(meds))
	for _, m := range meds {
		xs = append(xs, m)
	}
	return geomean(xs)
}

// quartiles returns the first, second and third quartiles of xs with
// the interpolation of Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the steadiness report reads the same
// spreads an external check computes. len(xs) must be at least 2.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
