package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the spread definition
// the benchmark's stability rule uses. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	at := func(i int) float64 {
		// Python's exclusive method: rank i*(n+1)/4, with the bracketing pair
		// clamped to the data's ends (so the two outer quartiles of a tiny
		// sample extrapolate, as Python's do).
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// tailPercentiles lists the percentiles the benchmark may report as a
// timing's tail, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestPercentile returns the highest entry of tailPercentiles that has at
// least ten of n samples beyond it, or ok == false when not even the median
// does (n < 20).
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// value with at least p% of the samples at or below it. NaN when empty.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	return sorted(xs)[max(0, rank(p, n)-1)]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples,
// clamped to [0, n]. The epsilon keeps float error in p*n/100 (99.9*1000 =
// 999.0000000000001) from pushing an exact rank to the next sample.
func rank(p float64, n int) int {
	return max(0, min(int(math.Ceil(p*float64(n)/100-1e-9)), n))
}
