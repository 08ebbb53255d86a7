package main

import (
	"math"
	"sort"
)

// failed marks a sample whose request failed. Percentiles sort it above every
// real latency, so a failure counts as missing any latency limit.
var failed = math.Inf(1)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest value such that at least p% of the samples are at or
// below it. Failed samples (+Inf) take part in the ranking. It returns NaN
// for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond is how many samples lie strictly above the nearest-rank p-th
// percentile's position: the tail a percentile rests on.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// median of plain values (used for repeated set-up timings).
func median(v []float64) float64 { return percentile(v, 50) }

// mean returns the arithmetic mean, or 0 for no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// finite maps +Inf (a percentile that landed on a failure) to the largest
// float64 so the value still encodes as a JSON number.
func finite(x float64) float64 {
	if math.IsInf(x, 1) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
