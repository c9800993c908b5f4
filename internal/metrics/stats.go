package metrics

// Rank-quality statistics for the approximate-BC evaluation. They live here
// rather than in internal/approx so the bench harness's quality columns and
// any offline analyzer share one dependency-free implementation.

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// kendallExactLimit caps the O(n²) exact pair enumeration; above it
// KendallTau estimates from kendallSamplePairs random pairs instead (BC
// vectors grow with graph scale, and the estimate's noise is far below the
// rank differences the experiment looks for).
const (
	kendallExactLimit  = 2048
	kendallSamplePairs = 2_000_000
)

// KendallTau computes the τ-b rank correlation between two equally long
// score vectors: (C−D)/√((C+D+Tx)(C+D+Ty)) over vertex pairs, where ties on
// both sides are discarded. It returns 0 for degenerate inputs (length < 2,
// or one side all-tied). For n above kendallExactLimit the pair set is
// sampled uniformly with the given seed, making the result an estimate —
// deterministic for a fixed seed.
func KendallTau(x, y []float64, seed int64) float64 {
	n := len(x)
	if n < 2 || len(y) != n {
		return 0
	}
	var c, d, tx, ty int64
	tally := func(i, j int) {
		dx := x[i] - x[j]
		dy := y[i] - y[j]
		switch {
		case dx == 0 && dy == 0: // tied on both sides: uninformative
		case dx == 0:
			tx++
		case dy == 0:
			ty++
		case (dx > 0) == (dy > 0):
			c++
		default:
			d++
		}
	}
	if n <= kendallExactLimit {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				tally(i, j)
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < kendallSamplePairs; k++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i != j {
				tally(i, j)
			}
		}
	}
	denomX := float64(c + d + tx)
	denomY := float64(c + d + ty)
	if denomX == 0 || denomY == 0 {
		return 0
	}
	num := float64(c - d)
	return num / (math.Sqrt(denomX) * math.Sqrt(denomY))
}

// Percentile returns the p-th percentile (0 < p <= 100) of samples by the
// nearest-rank definition, sorting a copy so the caller's order is
// preserved. Empty input returns 0. The benchmark (bench/) uses it for its
// latency records.
func Percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
