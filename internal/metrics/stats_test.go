package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestKendallTauPerfectAndReversed(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	if got := KendallTau(x, x, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("identical rankings: tau = %v, want 1", got)
	}
	rev := []float64{6, 5, 4, 3, 2, 1}
	if got := KendallTau(x, rev, 1); math.Abs(got+1) > 1e-12 {
		t.Fatalf("reversed rankings: tau = %v, want -1", got)
	}
}

func TestKendallTauDegenerate(t *testing.T) {
	if got := KendallTau([]float64{1}, []float64{2}, 1); got != 0 {
		t.Fatalf("short input: %v", got)
	}
	if got := KendallTau([]float64{3, 3, 3}, []float64{1, 2, 3}, 1); got != 0 {
		t.Fatalf("all-tied side: %v", got)
	}
	if got := KendallTau([]float64{1, 2}, []float64{1, 2, 3}, 1); got != 0 {
		t.Fatalf("length mismatch: %v", got)
	}
}

// TestKendallTauSampledAgreesWithExact checks the sampled estimator on a
// vector just above the exact limit against the exact value computed here.
func TestKendallTauSampledAgreesWithExact(t *testing.T) {
	n := kendallExactLimit + 100
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) + 50*rng.NormFloat64() // strongly but not perfectly correlated
	}
	var c, d int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (x[i]-x[j] > 0) == (y[i]-y[j] > 0) {
				c++
			} else {
				d++
			}
		}
	}
	exact := float64(c-d) / float64(c+d)
	got := KendallTau(x, y, 7)
	if math.Abs(got-exact) > 0.01 {
		t.Fatalf("sampled tau %v vs exact %v", got, exact)
	}
}
