package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses — returns an error — when fewer than minBeyond samples lie
// beyond the requested rank, so no tail is ever read off a handful of
// points.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("percentile p%g needs %d samples beyond it, %d of %d are",
			p, minBeyond, n-rank, n)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// tailLadder is the set of percentiles tail chooses from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, with its value. ok is false when even the
// lowest rung lacks the samples.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if v, err := percentile(xs, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
