package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p95 needs at least 200 samples, a median at least 20.
const minBeyond = 10

// quantile returns the q-quantile (0 < q < 1) of xs, interpolating linearly
// between the two closest ranks, and whether the sample supports it: at
// least minBeyond samples lie on the far side of it. An empty sample gives
// (0, false).
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	v := s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	return v, supported(len(s), q)
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-quantile (above it for q >= 0.5, below it otherwise).
func supported(n int, q float64) bool {
	tail := math.Min(q, 1-q)
	return float64(n)*tail >= minBeyond-1e-9
}
