package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation of xs from its median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// minTailSamples is how many samples must lie beyond a percentile before
// it is reported: below that the value is set by a handful of outliers
// and does not repeat.
const minTailSamples = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. ok is
// false, and the value must not be reported, when fewer than
// minTailSamples samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond = len(s) - 1 - idx
	return s[idx], beyond, beyond >= minTailSamples
}
