package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).  xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// smoothedMedian is the mean of the samples between the 49th and 51st
// percentiles.  Cold-mix weighs 60 pairs of distinct cost equally, so its
// plain median sits on the boundary between the 30th and 31st cheapest pair
// and jumps between them from run to run; averaging the middle 2% of samples
// straddles the boundary evenly.  On a smooth distribution it is the median.
// xs is sorted in place.
func smoothedMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	lo := int(0.49 * float64(len(xs)))
	hi := max(int(math.Ceil(0.51*float64(len(xs)))), lo+1)
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
