package core

import (
	"repro/internal/bcc"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// CensusOptions tunes BuildCensus.
type CensusOptions struct {
	// RedundancySampleK bounds the redundancy analysis: 0 means exact,
	// > 0 samples that many sources (the bcd stats endpoint uses sampling so
	// a census stays cheap on loaded graphs), < 0 skips the analysis.
	RedundancySampleK int
}

// censusSeed drives the redundancy analysis's source sampling, so a sampled
// census is the same on every run.
const censusSeed = 1

// BuildCensus assembles the articulation-point census of g under the
// decomposition d — the one serializer behind both `bcstats -json` and the
// daemon's GET /v1/graphs/{name}/stats.
func BuildCensus(name string, g *graph.Graph, d *decompose.Decomposition, opt CensusOptions) metrics.GraphCensus {
	st := graph.Stats(g)
	aps, deg1 := bcc.CountArticulationPoints(g)
	c := metrics.GraphCensus{
		Schema:   metrics.CensusSchemaVersion,
		Graph:    name,
		Directed: g.Directed(),
		Verts:    g.NumVertices(),
		Edges:    g.NumEdges(),
		Arcs:     g.NumArcs(),
		Degree: metrics.DegreeCensus{
			Min:      st.MinOut,
			Max:      st.MaxOut,
			Mean:     st.MeanOut,
			Isolated: st.Isolated,
			Sources:  st.Sources,
		},
		ArticulationPoints: aps,
		SingleEdgeVertices: deg1,
	}
	if g.Directed() {
		_, count := graph.StronglyConnectedComponents(g)
		c.SCC = &metrics.SCCCensus{Count: count, Largest: graph.LargestSCCSize(g)}
	}
	c.Decomposition = metrics.DecompositionCensus{
		Threshold:   d.Threshold,
		Subgraphs:   len(d.Subgraphs),
		BoundaryAPs: d.NumArticulation,
		Roots:       d.TotalRoots(),
	}
	n := g.NumVertices()
	sizes := d.SubgraphSizes()
	for i := 0; i < len(sizes) && i < 5; i++ {
		c.Decomposition.Largest = append(c.Decomposition.Largest, metrics.SubgraphCensus{
			Verts:      sizes[i].Verts,
			Arcs:       sizes[i].Arcs,
			VertShare:  float64(sizes[i].Verts) / float64(max(1, n)),
			Swept:      sizes[i].Swept,
			MaxDegree:  sizes[i].MaxDegree,
			MeanDegree: float64(sizes[i].Arcs) / float64(max(1, sizes[i].Swept)),
			Relabelled: sizes[i].Relabelled,
			Hybrid:     !g.Weighted() && sweepsHybrid(sizes[i].Swept, sizes[i].Arcs),
			Lanes:      !g.Weighted() && sweepsLanes(sizes[i].Swept, sizes[i].Swept, false),
		})
	}
	if opt.RedundancySampleK >= 0 {
		rep := AnalyzeRedundancy(g, d, opt.RedundancySampleK, censusSeed)
		method := "exact"
		if rep.Sampled {
			method = "sampled"
		}
		c.Redundancy = &metrics.RedundancyCensus{
			Method:    method,
			Effective: rep.Effective,
			Partial:   rep.Partial,
			Total:     rep.Total,
		}
	}
	return c
}
