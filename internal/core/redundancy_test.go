package core

import (
	"math"
	"testing"

	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
)

func analyze(t *testing.T, g *graph.Graph, th int) *RedundancyReport {
	t.Helper()
	d, err := decompose.Decompose(g, decompose.Options{Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	return AnalyzeRedundancy(g, d, 0, 1)
}

func TestRedundancyStarExact(t *testing.T) {
	// Star(10): W = 10 BFS × 18 arcs = 180; 9 leaves folded → W_tot = 162;
	// the one root is left with no arc to sweep → W_eff = 0, and the 18 arcs
	// Brandes walks from the hub — all of them to folded leaves, whose terms
	// APGRE takes in closed form — are the partial share.
	rep := analyze(t, gen.Star(10), 64)
	if rep.BrandesWork != 180 || rep.TotalRedWork != 162 || rep.EffectiveWork != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Effective != 0 || math.Abs(rep.Total-0.9) > 1e-12 || math.Abs(rep.Partial-0.1) > 1e-12 {
		t.Fatalf("fractions = %+v", rep)
	}
	if rep.Sampled {
		t.Fatal("undirected analysis must be exact")
	}
}

func TestRedundancyCycleNoSavings(t *testing.T) {
	rep := analyze(t, gen.Cycle(20), 64)
	if rep.Effective != 1 || rep.Partial != 0 || rep.Total != 0 {
		t.Fatalf("biconnected graph should have zero redundancy: %+v", rep)
	}
}

func TestRedundancyCavemanPartial(t *testing.T) {
	// Chained cliques: most of Brandes' work is partial redundancy.
	rep := analyze(t, gen.Caveman(8, 8, false), 4)
	if rep.Partial < 0.5 {
		t.Fatalf("caveman partial redundancy = %.2f, want > 0.5", rep.Partial)
	}
	if rep.Effective <= 0 || rep.Effective > 0.5 {
		t.Fatalf("caveman effective = %.2f", rep.Effective)
	}
}

func TestRedundancyFractionsSum(t *testing.T) {
	graphs := []*graph.Graph{
		gen.SocialLike(gen.SocialParams{N: 600, AvgDeg: 5, Communities: 8, TopShare: 0.5, LeafFrac: 0.3, Seed: 1}),
		gen.RoadLike(gen.RoadParams{Rows: 12, Cols: 12, DeleteFrac: 0.1, SpurFrac: 0.1, SpurLen: 2, Seed: 2}),
		gen.Tree(300, 3),
	}
	for gi, g := range graphs {
		rep := analyze(t, g, 32)
		sum := rep.Effective + rep.Partial + rep.Total
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("graph %d: fractions sum to %v: %+v", gi, sum, rep)
		}
		for _, f := range []float64{rep.Effective, rep.Partial, rep.Total} {
			if f < 0 || f > 1 {
				t.Fatalf("graph %d: fraction out of range: %+v", gi, rep)
			}
		}
	}
}

func TestRedundancyEffectiveMatchesCounters(t *testing.T) {
	// The analyzer's W_eff must equal the TraversedArcs the real computation
	// reports (undirected exact path).
	g := gen.SocialLike(gen.SocialParams{N: 500, AvgDeg: 4, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 4})
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeRedundancy(g, d, 0, 1)
	var bd Breakdown
	if _, err := ComputeDecomposed(d, Options{Breakdown: &bd}); err != nil {
		t.Fatal(err)
	}
	if rep.EffectiveWork != bd.TraversedArcs {
		t.Fatalf("analyzer W_eff %d != computed traversal %d", rep.EffectiveWork, bd.TraversedArcs)
	}
}

func TestRedundancyDirectedSampled(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 5, Communities: 6,
		TopShare: 0.5, LeafFrac: 0.3, Directed: true, Reciprocity: 0.5, Seed: 5})
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeRedundancy(g, d, 64, 7)
	if !rep.Sampled {
		t.Fatal("directed analysis should be sampled")
	}
	if rep.BrandesWork <= 0 || rep.EffectiveWork <= 0 {
		t.Fatalf("empty estimates: %+v", rep)
	}
	if rep.Total <= 0 {
		t.Fatalf("directed leafy graph should show total redundancy: %+v", rep)
	}
	sum := rep.Effective + rep.Partial + rep.Total
	if sum < 0.5 || sum > 1.5 {
		t.Fatalf("sampled fractions implausible (sum %v): %+v", sum, rep)
	}
}

func TestRedundancyEmpty(t *testing.T) {
	g := graph.NewFromEdges(0, nil, false)
	d, _ := decompose.Decompose(g, decompose.Options{})
	rep := AnalyzeRedundancy(g, d, 0, 1)
	if rep.BrandesWork != 0 || rep.Effective != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
}
