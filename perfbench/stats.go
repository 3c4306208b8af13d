package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minTail = 10

// needed returns how many samples a percentile p (0 < p < 1) needs before
// it may be reported.
func needed(p float64) int {
	return int(math.Ceil(minTail/(1-p) - 1e-9))
}

// percentile returns the nearest-rank p-quantile of xs (which it sorts in
// place). ok is false when fewer than minTail samples lie strictly beyond
// the returned rank, in which case the tail is not reportable. p = 0.5
// is exempt from the tail rule: a median only needs one sample.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if p > 0.5 && n-1-rank < minTail {
		return xs[rank], false
	}
	return xs[rank], true
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); it sorts xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// series collects one timing's samples in a unit.
type series []float64

func (s *series) add(v float64) { *s = append(*s, v) }

// enough reports whether every percentile in ps is reportable.
func (s series) enough(ps ...float64) bool {
	for _, p := range ps {
		if len(s) < needed(p) {
			return false
		}
	}
	return true
}
