package core

import (
	"testing"

	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
)

func breakdownGraph() *gen.SocialParams {
	return &gen.SocialParams{N: 1200, AvgDeg: 6, Communities: 12,
		TopShare: 0.45, LeafFrac: 0.35, Seed: 42}
}

// TestBreakdownTotalCompute pins Figure 8's invariant on the full pipeline,
// for the BFS and the Dijkstra kernel: Total is exactly the sum of the four
// phases and is never the zero value, and the top sub-graph's sweeps are
// attributed to TopBC.
func TestBreakdownTotalCompute(t *testing.T) {
	base := gen.SocialLike(*breakdownGraph())
	for name, g := range map[string]*graph.Graph{
		"unweighted": base,
		"weighted":   gen.WithRandomWeights(base, 4, 9),
	} {
		for _, workers := range []int{1, 4} {
			var bd Breakdown
			if _, err := Compute(g, Options{Workers: workers, Breakdown: &bd}); err != nil {
				t.Fatal(err)
			}
			if bd.Total <= 0 {
				t.Fatalf("%s workers=%d: Breakdown.Total = %v, want > 0", name, workers, bd.Total)
			}
			if sum := bd.Partition + bd.AlphaBeta + bd.TopBC + bd.RestBC; bd.Total != sum {
				t.Fatalf("%s workers=%d: Total %v != phase sum %v", name, workers, bd.Total, sum)
			}
			if bd.TopBC <= 0 {
				t.Fatalf("%s workers=%d: TopBC = %v, want the top sub-graph's share", name, workers, bd.TopBC)
			}
		}
	}
}

// TestBreakdownTotalComputeDecomposed covers the direct-caller path (used by
// the incremental engine and the integration suite): ComputeDecomposed must
// populate Total itself instead of leaving the caller's zero in place.
func TestBreakdownTotalComputeDecomposed(t *testing.T) {
	g := gen.SocialLike(*breakdownGraph())
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var bd Breakdown
		if _, err := ComputeDecomposed(d, Options{Workers: workers, Breakdown: &bd}); err != nil {
			t.Fatal(err)
		}
		if bd.Total <= 0 {
			t.Fatalf("workers=%d: Breakdown.Total = %v, want > 0", workers, bd.Total)
		}
		if sum := bd.Partition + bd.AlphaBeta + bd.TopBC + bd.RestBC; bd.Total != sum {
			t.Fatalf("workers=%d: Total %v != phase sum %v", workers, bd.Total, sum)
		}
		// Direct callers did not time a decomposition, so the preprocessing
		// phases stay zero and Total is exactly the BC phases.
		if bd.Partition != 0 || bd.AlphaBeta != 0 {
			t.Fatalf("workers=%d: unexpected preprocessing timings %v/%v",
				workers, bd.Partition, bd.AlphaBeta)
		}
	}
}
