package main

import (
	"math"
	"slices"
)

// median is the middle of the sorted samples (mean of the two middle ones for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile is the rule for which tail a latency distribution may
// report: the highest percentile of the usual ladder that still has at least
// ten samples beyond it. Below 40 samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		// n·(1−p/100) ≥ 10, written so that 100−99.9 ≠ 0.1 cannot flip it.
		if float64(n)*(100-p) >= 1000-1e-6 {
			best = p
		}
	}
	return best
}

// maxRelErr is the largest per-vertex disagreement between two score vectors,
// relative to max(1, |want|) so zero scores compare absolutely. Vectors of
// different length, or any NaN, disagree infinitely.
func maxRelErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range got {
		e := math.Abs(got[i]-want[i]) / math.Max(1, math.Abs(want[i]))
		if math.IsNaN(e) {
			return math.Inf(1)
		}
		worst = math.Max(worst, e)
	}
	return worst
}

// bitIdentical reports whether two score vectors hold the same float64 bit
// patterns.
func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
