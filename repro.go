// Package repro is the public API of the APGRE betweenness-centrality
// library, a from-scratch Go reproduction of "Articulation Points Guided
// Redundancy Elimination for Betweenness Centrality" (PPoPP 2016).
//
// Quick start:
//
//	g := repro.GenerateSocial(repro.SocialParams{N: 10000, AvgDeg: 6,
//	    Communities: 40, TopShare: 0.5, LeafFrac: 0.3, Seed: 1})
//	bc, err := repro.BetweennessCentrality(g, repro.Options{Algorithm: repro.AlgoAPGRE})
//	top := repro.TopK(bc, 10)
//
// The package re-exports the graph substrate (CSR storage, generators, I/O),
// the APGRE algorithm with its work-unit parallelism, the six published
// baseline algorithms the paper compares against, one approximate estimator
// (ApproximateBC, sampling over the same decomposition), and the analysis
// helpers that regenerate the paper's tables and figures (see cmd/bcbench).
package repro

import (
	"fmt"
	"sort"

	"repro/internal/approx"
	"repro/internal/brandes"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
)

// Graph is the CSR graph type all algorithms operate on.
type Graph = graph.Graph

// Edge is a (From, To) pair for graph construction.
type Edge = graph.Edge

// V is the vertex id type.
type V = graph.V

// SocialParams re-exports the social-network generator's knobs.
type SocialParams = gen.SocialParams

// WebParams re-exports the web-crawl generator's knobs.
type WebParams = gen.WebParams

// RoadParams re-exports the road-network generator's knobs.
type RoadParams = gen.RoadParams

// NewGraph builds a graph with n vertices from an edge list. Self-loops are
// dropped and parallel edges deduplicated.
func NewGraph(n int, edges []Edge, directed bool) *Graph {
	return graph.NewFromEdges(n, edges, directed)
}

// LoadGraph reads a graph file; format "" infers from the extension
// (.txt/.el edge list, .gr DIMACS, .bin binary CSR, .graphml/.xml GraphML,
// .json d3 node-link).
func LoadGraph(path, format string, directed bool) (*Graph, error) {
	return graphio.LoadFile(path, format, directed)
}

// SaveGraph writes a graph file (edge list, binary CSR, GraphML or JSON by
// extension).
func SaveGraph(path, format string, g *Graph) error {
	return graphio.SaveFile(path, format, g)
}

// GenerateSocial builds a community graph with tunable articulation-point
// and leaf structure — the shape APGRE exploits.
func GenerateSocial(p SocialParams) *Graph { return gen.SocialLike(p) }

// GenerateWeb builds a directed hierarchical web-crawl-like graph.
func GenerateWeb(p WebParams) *Graph { return gen.WebLike(p) }

// GenerateRoad builds an undirected road-network-like graph.
func GenerateRoad(p RoadParams) *Graph { return gen.RoadLike(p) }

// GenerateErdosRenyi builds a uniform random graph (the "no redundancy"
// control: almost surely biconnected when dense).
func GenerateErdosRenyi(n int, m int64, directed bool, seed int64) *Graph {
	return gen.ErdosRenyi(n, m, directed, seed)
}

// GenerateBarabasiAlbert builds a preferential-attachment power-law graph.
func GenerateBarabasiAlbert(n, k int, seed int64) *Graph {
	return gen.BarabasiAlbert(n, k, seed)
}

// Algorithm names an exact-BC implementation.
type Algorithm string

// The available algorithms: APGRE (the paper's contribution) and the six
// baselines of its evaluation (§5.1).
const (
	AlgoAPGRE        Algorithm = "apgre"
	AlgoSerial       Algorithm = "serial"       // preds-serial [12]
	AlgoPreds        Algorithm = "preds"        // Bader–Madduri [12]
	AlgoSuccs        Algorithm = "succs"        // Madduri et al. [13]
	AlgoLockSyncFree Algorithm = "locksyncfree" // Tan et al. [14]
	AlgoAsync        Algorithm = "async"        // Prountzos–Pingali [11], undirected only
	AlgoHybrid       Algorithm = "hybrid"       // Ligra/direction-optimizing [25][33]
)

// Algorithms lists every algorithm name accepted by Options.Algorithm: APGRE
// and the baselines of internal/brandes' table, in its order.
func Algorithms() []Algorithm {
	algos := []Algorithm{AlgoAPGRE}
	for _, b := range brandes.Baselines {
		algos = append(algos, Algorithm(b.Name))
	}
	return algos
}

// ErrPathCountOverflow is what BetweennessCentrality returns, for every
// algorithm, and what ApproximateBC and NewIncrementalBC return, instead of
// scores on a graph where some source reaches some vertex over more shortest
// paths than float64 can count (σ = +Inf, past ~1.8·10³⁰⁸). Check it with
// errors.Is.
var ErrPathCountOverflow = graph.ErrPathCountOverflow

// Options configures BetweennessCentrality.
type Options struct {
	// Algorithm selects the implementation; empty means AlgoAPGRE.
	Algorithm Algorithm
	// Workers bounds parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Threshold is APGRE's decomposition merge threshold (Algorithm 1);
	// <= 0 means the default (64).
	Threshold int
	// DisableGamma turns off APGRE's total-redundancy elimination.
	DisableGamma bool
	// Breakdown, when non-nil, receives APGRE's phase timings.
	Breakdown *core.Breakdown
}

// BetweennessCentrality computes exact BC scores for every vertex using the
// selected algorithm. Scores use the directed-sum convention (each unordered
// pair of an undirected graph counts in both directions), identical across
// all algorithms. A weighted graph's shortest paths are its lightest:
// AlgoAPGRE sweeps it with Dijkstra over the same decomposition — our
// extension of the paper beyond its unweighted scope — and AlgoSerial is the
// textbook Dijkstra-Brandes reference. The five parallel baselines count
// hops, so on a weighted graph they return an error. A graph whose path
// counts overflow float64 is ErrPathCountOverflow, whatever the algorithm.
func BetweennessCentrality(g *Graph, opt Options) ([]float64, error) {
	if opt.Algorithm == AlgoAPGRE || opt.Algorithm == "" {
		return core.Compute(g, core.Options{
			Workers:      opt.Workers,
			Threshold:    opt.Threshold,
			DisableGamma: opt.DisableGamma,
			Breakdown:    opt.Breakdown,
		})
	}
	for _, b := range brandes.Baselines {
		if b.Name == string(opt.Algorithm) {
			return b.Run(g, opt.Workers)
		}
	}
	return nil, fmt.Errorf("repro: unknown algorithm %q", opt.Algorithm)
}

// ApproxOptions configures ApproximateBC (internal/approx).
type ApproxOptions = approx.Options

// ApproxResult is a finished ApproximateBC estimate.
type ApproxResult = approx.Result

// ApproximateBC estimates BC with the per-sub-graph pivot sampler fused with
// the APGRE decomposition: sources are sampled per sub-graph and
// Horvitz–Thompson scaled while the α/β/γ boundary corrections stay exact.
// The estimate is unbiased per vertex, reproduces exact BC bit for bit when
// the budget covers every root, and has an adaptive eps mode
// (ApproxOptions.Eps) with a bootstrap stopping rule. Pivots > 0 selects a
// fixed budget and Eps > 0 an accuracy target; neither, both, or a weighted
// graph is an error.
func ApproximateBC(g *Graph, opt ApproxOptions) (*ApproxResult, error) {
	return approx.Estimate(g, opt)
}

// WeightedEdge is an edge with a positive length.
type WeightedEdge = graph.WeightedEdge

// NewWeightedGraph builds a weighted graph (positive weights; parallel edges
// keep the minimum). BetweennessCentrality honours its weights with
// AlgoAPGRE and AlgoSerial.
func NewWeightedGraph(n int, edges []WeightedEdge, directed bool) *Graph {
	return graph.NewWeightedFromEdges(n, edges, directed)
}

// AttachRandomWeights returns a weighted copy of g with integer weights in
// [1, maxW].
func AttachRandomWeights(g *Graph, maxW int, seed int64) *Graph {
	return gen.WithRandomWeights(g, maxW, seed)
}

// IncrementalBC maintains exact BC scores across edge insertions and
// removals: every update decomposes the graph afresh and sweeps only the
// sub-graphs it changed (see internal/core.Incremental).
type IncrementalBC = core.Incremental

// NewIncrementalBC builds the incremental maintainer for an unweighted graph.
// Threshold and DisableGamma apply. The maintainer is APGRE's and its epochs
// are serial and untimed, so another Algorithm, Workers or a Breakdown is an
// error.
func NewIncrementalBC(g *Graph, opt Options) (*IncrementalBC, error) {
	if (opt.Algorithm != "" && opt.Algorithm != AlgoAPGRE) || opt.Workers != 0 || opt.Breakdown != nil {
		return nil, fmt.Errorf("repro: incremental BC is APGRE's and takes no Algorithm, Workers or Breakdown")
	}
	return core.NewIncremental(g, core.Options{
		Threshold:    opt.Threshold,
		DisableGamma: opt.DisableGamma,
	})
}

// ClosenessResult holds per-vertex closeness data.
type ClosenessResult = closeness.Result

// ClosenessCentrality computes exact closeness for every vertex. Undirected
// graphs route through the articulation-point-accelerated engine (the
// paper's decomposition applied to a second centrality — see
// internal/closeness); directed graphs use the per-vertex BFS baseline.
// Both count hops, so a weighted graph, directed or not, is an error.
func ClosenessCentrality(g *Graph, workers int) (*ClosenessResult, error) {
	if g.Directed() && !g.Weighted() {
		return closeness.Exact(g, workers), nil
	}
	// Decomposed rejects a weighted graph before it looks at direction.
	return closeness.Decomposed(g, closeness.Options{Workers: workers})
}

// VertexScore pairs a vertex with its BC score.
type VertexScore struct {
	Vertex V
	Score  float64
}

// TopK returns the k highest-scoring vertices in decreasing order
// (ties by vertex id); k < 0 gives none.
func TopK(bc []float64, k int) []VertexScore {
	if k < 0 {
		return []VertexScore{}
	}
	all := make([]VertexScore, len(bc))
	for v, s := range bc {
		all[v] = VertexScore{Vertex: V(v), Score: s}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Vertex < all[j].Vertex
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Decomposition summarizes APGRE's articulation-point partition of a graph.
type Decomposition struct {
	// Subgraphs is the number of sub-graphs.
	Subgraphs int
	// ArticulationPoints is the number of boundary articulation points.
	ArticulationPoints int
	// Roots is the number of BFS roots after total-redundancy removal.
	Roots int64
	// TopVerts/TopArcs are the largest sub-graph's size (Table 4's shape):
	// all of its vertices, and its swept arcs — what is left once the folded
	// degree-1 vertices' arcs are stripped.
	TopVerts int
	TopArcs  int64
}

// Decompose reports the decomposition shape for g (Table 4's measurement).
func Decompose(g *Graph, threshold int) (Decomposition, error) {
	d, err := decompose.Decompose(g, decompose.Options{Threshold: threshold})
	if err != nil {
		return Decomposition{}, err
	}
	out := Decomposition{
		Subgraphs:          len(d.Subgraphs),
		ArticulationPoints: d.NumArticulation,
		Roots:              d.TotalRoots(),
	}
	if d.TopIndex >= 0 {
		out.TopVerts = d.Subgraphs[d.TopIndex].NumVerts()
		out.TopArcs = d.Subgraphs[d.TopIndex].NumArcs()
	}
	return out, nil
}

// Redundancy reports how Brandes' work on g splits into effective work,
// partial redundancy and total redundancy (the paper's Figure 7).
type Redundancy struct {
	Effective, Partial, Total float64
	Sampled                   bool
}

// AnalyzeRedundancy measures g's redundancy profile.
func AnalyzeRedundancy(g *Graph, threshold int) (Redundancy, error) {
	d, err := decompose.Decompose(g, decompose.Options{Threshold: threshold})
	if err != nil {
		return Redundancy{}, err
	}
	rep := core.AnalyzeRedundancy(g, d, 0, 1)
	return Redundancy{Effective: rep.Effective, Partial: rep.Partial,
		Total: rep.Total, Sampled: rep.Sampled}, nil
}

// Breakdown re-exports APGRE's phase breakdown type.
type Breakdown = core.Breakdown
