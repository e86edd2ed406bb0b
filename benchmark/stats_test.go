package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestQuantileMatchesPythonInclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{seq(10), 0.9, 9.1}, // statistics.quantiles(range(1,11), n=10, method="inclusive")[8]
		{seq(10), 0, 1},
		{seq(10), 1, 10},
		{[]float64{7}, 0.9, 7},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false},
		{100, 0.9, true},
		{200, 0.95, true},
		{199, 0.95, false},
		{19, 0.5, false},
		{20, 0.5, true},
	} {
		if got := supportsPercentile(c.n, c.q); got != c.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25}, // statistics.quantiles(range(1,11), n=4)
		{seq(5), 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25}, // extrapolated, as Python does
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
