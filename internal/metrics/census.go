package metrics

// GraphCensus is the machine-readable form of the articulation-point census
// bcstats prints — the Figure 2/Table 4 measurements for one graph. It is the
// single serialization shared by `bcstats -json` and the bcd daemon's
// GET /v1/graphs/{name}/stats endpoint (internal/core.BuildCensus fills it),
// so the CLI and the service can never drift apart. It is pure data:
// internal/metrics stays dependency-free.

// CensusSchemaVersion identifies the census layout; bump on breaking changes.
const CensusSchemaVersion = 1

// DegreeCensus summarizes the degree distribution.
type DegreeCensus struct {
	Min      int     `json:"min"`
	Max      int     `json:"max"`
	Mean     float64 `json:"mean"`
	Isolated int     `json:"isolated"`
	// Sources counts no-in single-out vertices (directed leaf analogue).
	Sources int `json:"sources"`
}

// SubgraphCensus is one sub-graph's share of the decomposition (Table 4 row).
type SubgraphCensus struct {
	Verts int `json:"verts"`
	// Arcs counts swept arcs: the γ-folded vertices' arcs are in no sweep and
	// not in this number.
	Arcs int64 `json:"arcs"`
	// VertShare is Verts over the graph's vertex count, in [0,1].
	VertShare float64 `json:"vert_share"`
	// Swept counts the vertices a sweep can visit (Verts less the γ-folded
	// ones), MaxDegree and MeanDegree are the largest and the mean out-degree
	// among them, over swept arcs. Relabelled says whether the sub-graph's
	// swept vertices' local ids were laid out for the cache — hubs first, then
	// breadth-first — which decompose does exactly when MaxDegree is at least
	// eight times MeanDegree; otherwise they are in global-id order. The
	// folded vertices' ids come after the swept ones' either way. Hybrid
	// says whether the scalar BFS sweep of this sub-graph is
	// direction-optimizing — which core decides from Swept (at least 256) and
	// MeanDegree (at least 4) — rather than top-down on every level. Lanes says
	// whether a sweep of all of the sub-graph's roots, the one an edit inside
	// it re-runs, takes the bit-parallel lane kernel (64 roots per traversal)
	// rather than the scalar one: core decides it from Swept (64 to 819, the
	// lane state fitting 2 MiB). Both are false on weighted graphs, which
	// Dijkstra sweeps.
	Swept      int     `json:"swept,omitempty"`
	MaxDegree  int     `json:"max_degree,omitempty"`
	MeanDegree float64 `json:"mean_degree,omitempty"`
	Relabelled bool    `json:"relabelled,omitempty"`
	Hybrid     bool    `json:"hybrid,omitempty"`
	Lanes      bool    `json:"lanes,omitempty"`
}

// DecompositionCensus profiles the articulation-point partition.
type DecompositionCensus struct {
	Threshold   int   `json:"threshold"`
	Subgraphs   int   `json:"subgraphs"`
	BoundaryAPs int   `json:"boundary_aps"`
	Roots       int64 `json:"roots"`
	// Largest lists the biggest sub-graphs by vertex count (at most five —
	// the shape Table 4 reports).
	Largest []SubgraphCensus `json:"largest,omitempty"`
}

// RedundancyCensus reports the Figure 7 redundancy split.
type RedundancyCensus struct {
	// Method is "exact" or "sampled".
	Method    string  `json:"method"`
	Effective float64 `json:"effective"`
	Partial   float64 `json:"partial"`
	Total     float64 `json:"total"`
}

// SCCCensus profiles strong connectivity (directed graphs only).
type SCCCensus struct {
	Count   int `json:"count"`
	Largest int `json:"largest"`
}

// GraphCensus bundles everything bcstats measures about one graph.
type GraphCensus struct {
	Schema   int    `json:"schema"`
	Graph    string `json:"graph"`
	Directed bool   `json:"directed"`
	Verts    int    `json:"verts"`
	Edges    int64  `json:"edges"`
	Arcs     int64  `json:"arcs"`

	Degree DegreeCensus `json:"degree"`
	// ArticulationPoints counts cut vertices of the (underlying undirected)
	// graph; SingleEdgeVertices counts degree-1 leaves.
	ArticulationPoints int        `json:"articulation_points"`
	SingleEdgeVertices int        `json:"single_edge_vertices"`
	SCC                *SCCCensus `json:"scc,omitempty"`

	Decomposition DecompositionCensus `json:"decomposition"`
	Redundancy    *RedundancyCensus   `json:"redundancy,omitempty"`
}
