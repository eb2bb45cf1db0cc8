package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 2, 9}, 2},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected values are those of Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 7, 3, 5, 9, 2, 8, 4, 6}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 6},
	} {
		q1, q3, ok := quartiles(tc.in)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.in, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := highestPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}
