package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before a
// run may report it: a p90 needs at least 100 samples.
const minBeyond = 10

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks (Python's statistics.quantiles with
// method="inclusive"). xs is not modified; an empty xs gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the middle value of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supportsPercentile reports whether n samples leave at least minBeyond
// of them beyond the q-quantile.
func supportsPercentile(n int, q float64) bool {
	// The epsilon absorbs float error in n·(1−q), e.g. 100·(1−0.9).
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
