package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile of sorted samples by nearest rank:
// the smallest sample with at least q of the samples at or below it.
// It is exact — no buckets — and 0 for no samples.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return float64(sorted[min(max(rank, 1), len(sorted))-1])
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the distance between the extremes of xs as a share of their
// median: the repeatability measure of -repeat, which has too few runs
// for quartiles.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (slices.Max(xs) - slices.Min(xs)) / math.Abs(m)
}

// ratio is a/b, and 0 where b is 0: a counter that never moved.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
