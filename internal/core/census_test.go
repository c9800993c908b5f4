package core

import (
	"testing"

	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// TestCensusNamesTheLayout: the census says of each sub-graph it lists whether
// its local ids were laid out for the cache and the numbers that decided it —
// an R-MAT's top has a hub and is relabelled, a lattice's is not — so "is this
// sub-graph laid out for the cache, and why" is answered by bcstats -json and
// GET /v1/graphs/{name}/stats alone; beside its mean degree, whether its
// sweep is direction-optimizing (the R-MAT's) or top-down (the lattice's); and
// which kernel a sweep of all its roots takes (the R-MAT's 649 swept vertices:
// lanes; the lattice's 900, past the lane budget: scalar).
func TestCensusNamesTheLayout(t *testing.T) {
	top := func(name string, g *graph.Graph) metrics.SubgraphCensus {
		t.Helper()
		d, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sg := d.Subgraphs[d.TopIndex]
		got := BuildCensus(name, g, d, CensusOptions{RedundancySampleK: -1}).Decomposition.Largest[0]
		if got.Verts != sg.NumVerts() || got.Swept != len(sg.Roots) || got.Relabelled != sg.Relabelled() ||
			got.MeanDegree != float64(sg.NumArcs())/float64(len(sg.Roots)) || got.Lanes != useLanes(sg, len(sg.Roots), false, false) {
			t.Fatalf("census row %+v does not describe the top sub-graph (%d vertices, %d swept, %d arcs, relabelled %v)",
				got, sg.NumVerts(), len(sg.Roots), sg.NumArcs(), sg.Relabelled())
		}
		return got
	}
	if row := top("rmat", gen.RMAT(10, 8, 0.57, 0.19, 0.19, false, 3)); !row.Relabelled || float64(row.MaxDegree) < 8*row.MeanDegree {
		t.Fatalf("R-MAT top: %+v; want relabelled, on a largest degree of eight times the mean", row)
	} else if !row.Hybrid {
		t.Fatalf("R-MAT top: %+v; want a direction-optimizing sweep at %.1f arcs per swept vertex", row, row.MeanDegree)
	} else if !row.Lanes {
		t.Fatalf("R-MAT top: %+v; want the lane kernel for %d swept vertices", row, row.Swept)
	}
	if row := top("grid", gen.Grid2D(30, 30)); row.Relabelled || row.MaxDegree != 4 {
		t.Fatalf("lattice top: %+v; want id order, largest degree 4", row)
	} else if row.Hybrid || row.Swept < hybridMinVerts {
		t.Fatalf("lattice top: %+v; want a top-down sweep past hybridMinVerts, at %.1f arcs per swept vertex", row, row.MeanDegree)
	} else if row.Lanes {
		t.Fatalf("lattice top: %+v; want the scalar kernel past the lane budget", row)
	}
}

// TestCensusReportsAppliedThreshold: the census reports the threshold the
// decomposition applied — DefaultThreshold when the caller left it unset —
// never the zero a caller passed to ask for the default.
func TestCensusReportsAppliedThreshold(t *testing.T) {
	g := gen.Lollipop(6, 10)
	for asked, want := range map[int]int{0: decompose.DefaultThreshold, -3: decompose.DefaultThreshold, 8: 8} {
		d, err := decompose.Decompose(g, decompose.Options{Threshold: asked})
		if err != nil {
			t.Fatal(err)
		}
		if got := BuildCensus("lollipop", g, d, CensusOptions{RedundancySampleK: -1}).Decomposition.Threshold; got != want {
			t.Errorf("Decompose(Threshold: %d): census threshold %d, want %d", asked, got, want)
		}
	}
}
