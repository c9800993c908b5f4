package approx

import (
	"math"
	"math/rand"
)

// errorEstimate bootstraps the stored batch vectors into a per-vertex
// confidence-interval half-width for the mean batch estimate and returns the
// maximum over vertices on the normalized BC scale (divided by (n−1)(n−2)).
// It returns 0 once the estimate is exact and +Inf while fewer than two
// batches exist. Results are cached until the next refinement and are
// deterministic: the bootstrap RNG is derived from the seed and the pivot
// count.
func (e *estimator) errorEstimate() float64 {
	if len(e.open) == 0 {
		return 0
	}
	if len(e.batches) < 2 {
		return math.Inf(1)
	}
	if e.errValid {
		return e.errCached
	}
	k := len(e.batches)
	rng := rand.New(rand.NewSource(e.seed ^ 0x5deece66d ^ int64(e.pivots)<<17))
	m1 := make([]float64, e.n)
	m2 := make([]float64, e.n)
	mean := make([]float64, e.n)
	invK := 1 / float64(k)
	for r := 0; r < bootstrapResamples; r++ {
		for v := range mean {
			mean[v] = 0
		}
		for j := 0; j < k; j++ {
			b := e.batches[rng.Intn(k)]
			for v, x := range b {
				mean[v] += x
			}
		}
		for v, m := range mean {
			m *= invK
			m1[v] += m
			m2[v] += m * m
		}
	}
	invR := 1 / float64(bootstrapResamples)
	maxHW := 0.0
	for v := range m1 {
		mu := m1[v] * invR
		va := m2[v]*invR - mu*mu
		if va <= 0 {
			continue
		}
		if hw := z95 * math.Sqrt(va); hw > maxHW {
			maxHW = hw
		}
	}
	e.errCached = maxHW * e.norm
	e.errValid = true
	return e.errCached
}
