package graph

import (
	"fmt"
	"slices"
)

// WeightedEdge is an edge with a positive length. Weighted graphs extend the
// paper's unweighted setting: the articulation-point factorization
// σ_st = σ_sa·σ_at holds for any positive edge weights, so APGRE's
// decomposition applies unchanged with Dijkstra in place of BFS (see
// internal/core's weighted engine).
type WeightedEdge struct {
	From, To V
	W        float64
}

// NewWeightedFromEdges builds a weighted CSR graph. Self-loops are dropped;
// parallel edges keep the minimum weight (only the shortest parallel edge
// can lie on a shortest path). Weights must be positive — zero or negative
// weights would break both Dijkstra and the biconnected shortest-path
// arguments — and violations panic, since silently accepting them would
// corrupt every downstream score. The arcs are counted and placed as
// NewFromEdges places them, with their weights alongside, and the one
// canonicaliser makes the rows canonical.
func NewWeightedFromEdges(n int, edges []WeightedEdge, directed bool) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	offs := make([]int64, n+1)
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n))
		}
		if !(e.W > 0) {
			panic(fmt.Sprintf("graph: edge (%d,%d) has non-positive weight %v", e.From, e.To, e.W))
		}
		offs[e.From+1]++
		if !directed {
			offs[e.To+1]++
		}
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	adj := make([]V, offs[n])
	wts := make([]float64, offs[n])
	next := slices.Clone(offs[:n])
	for _, e := range edges {
		adj[next[e.From]], wts[next[e.From]] = e.To, e.W
		next[e.From]++
		if !directed {
			adj[next[e.To]], wts[next[e.To]] = e.From, e.W
			next[e.To]++
		}
	}
	return canonicalize(n, offs, adj, wts, directed)
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.wts != nil }

// OutWeights returns the weights parallel to Out(u). Panics on unweighted
// graphs.
func (g *Graph) OutWeights(u V) []float64 {
	if g.wts == nil {
		panic("graph: OutWeights on unweighted graph")
	}
	return g.wts[g.offs[u]:g.offs[u+1]]
}

// InWeights returns the weights parallel to In(u). For undirected graphs it
// is OutWeights(u); directed graphs must have called EnsureTranspose (In
// does so on first use). Panics on unweighted graphs.
func (g *Graph) InWeights(u V) []float64 {
	if g.wts == nil {
		panic("graph: InWeights on unweighted graph")
	}
	if !g.directed {
		return g.OutWeights(u)
	}
	if g.inOffs == nil {
		g.buildTranspose()
	}
	return g.inWts[g.inOffs[u]:g.inOffs[u+1]]
}

// WeightedEdges returns the logical weighted edge list (From < To once per
// undirected edge). An unweighted graph's edges weigh 1.
func (g *Graph) WeightedEdges() []WeightedEdge {
	out := make([]WeightedEdge, 0, g.NumEdges())
	for u := 0; u < g.n; u++ {
		for i, v := range g.Out(V(u)) {
			if g.directed || V(u) < v {
				w := 1.0
				if g.wts != nil {
					w = g.wts[g.offs[u]+int64(i)]
				}
				out = append(out, WeightedEdge{From: V(u), To: v, W: w})
			}
		}
	}
	return out
}
