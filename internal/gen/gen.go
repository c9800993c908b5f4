// Package gen provides deterministic, seeded synthetic graph generators.
//
// The paper evaluates on SNAP/DIMACS datasets that are not available offline;
// per DESIGN.md §3 every experiment instead runs on generators from this
// package, tuned so the structural properties APGRE exploits — articulation
// point density, volume hanging off cut vertices, and degree-1 leaf counts —
// match each paper input's redundancy profile.
package gen

import (
	"math/rand"

	"repro/internal/graph"
)

// ErdosRenyi returns a G(n, m) random graph: m distinct edges drawn uniformly
// (self-loops excluded, duplicates retried). Dense uniform graphs are almost
// surely biconnected, so they are the "no redundancy to eliminate" control.
func ErdosRenyi(n int, m int64, directed bool, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	maxM := int64(n) * int64(n-1)
	if !directed {
		maxM /= 2
	}
	if m > maxM {
		m = maxM
	}
	seen := make(map[[2]int32]bool, m)
	edges := make([]graph.Edge, 0, m)
	for int64(len(edges)) < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		key := [2]int32{u, v}
		if !directed && u > v {
			key = [2]int32{v, u}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, graph.Edge{From: u, To: v})
	}
	return graph.NewFromEdges(n, edges, directed)
}

// BarabasiAlbert returns an undirected preferential-attachment graph: each
// new vertex attaches to k existing vertices chosen proportionally to degree.
// Produces the power-law degree distribution of §2.2 ("a small subset of the
// vertices are connected to a large fraction of the graph").
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	if n < k+1 {
		n = k + 1
	}
	r := rand.New(rand.NewSource(seed))
	// Repeated-endpoint list: choosing a uniform element is degree-weighted.
	targets := make([]int32, 0, 2*n*k)
	edges := make([]graph.Edge, 0, n*k)
	// Seed clique of k+1 vertices.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			edges = append(edges, graph.Edge{From: int32(u), To: int32(v)})
			targets = append(targets, int32(u), int32(v))
		}
	}
	chosen := make([]int32, 0, k)
	for u := k + 1; u < n; u++ {
		// Draw k distinct degree-weighted endpoints. The slice (not a map)
		// keeps iteration deterministic: seeded generators must reproduce
		// bit-identical graphs across runs.
		chosen = chosen[:0]
		for len(chosen) < k {
			cand := targets[r.Intn(len(targets))]
			dup := false
			for _, c := range chosen {
				if c == cand {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, cand)
			}
		}
		for _, v := range chosen {
			edges = append(edges, graph.Edge{From: int32(u), To: v})
			targets = append(targets, int32(u), v)
		}
	}
	return graph.NewFromEdges(n, edges, false)
}

// RMAT returns a recursive-matrix (Kronecker-style) graph with 2^scale
// vertices and edgeFactor * 2^scale edge samples, using the standard
// (a,b,c,d) quadrant probabilities. Duplicate samples collapse in CSR
// construction, so the realized edge count is slightly lower.
func RMAT(scale int, edgeFactor int, a, b, c float64, directed bool, seed int64) *graph.Graph {
	checkRMAT(a, b, c)
	n := 1 << uint(scale)
	r := rand.New(rand.NewSource(seed))
	m := int64(edgeFactor) * int64(n)
	edges := make([]graph.Edge, 0, m)
	for e := int64(0); e < m; e++ {
		if u, v := rmatSample(r, n, a, b, c); u != v {
			edges = append(edges, graph.Edge{From: int32(u), To: int32(v)})
		}
	}
	return graph.NewFromEdges(n, edges, directed)
}

// Grid2D returns the rows×cols lattice graph (undirected). Grids are
// biconnected, the road-network building block.
func Grid2D(rows, cols int) *graph.Graph {
	n := rows * cols
	edges := make([]graph.Edge, 0, 2*n)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{From: id(r, c), To: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{From: id(r, c), To: id(r+1, c)})
			}
		}
	}
	return graph.NewFromEdges(n, edges, false)
}

// Path returns the n-vertex path graph, the extreme articulation-point case:
// every interior vertex is a cut vertex.
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32(i + 1)})
	}
	return graph.NewFromEdges(n, edges, false)
}

// Cycle returns the n-vertex cycle, which is biconnected (no articulation
// points) — the negative control for the decomposition.
func Cycle(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32((i + 1) % n)})
	}
	return graph.NewFromEdges(n, edges, false)
}

// Star returns the star with one hub and n-1 leaves; the hub is the sole
// articulation point and all leaves are total-redundancy candidates.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{From: 0, To: int32(i)})
	}
	return graph.NewFromEdges(n, edges, false)
}

// Complete returns K_n.
func Complete(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{From: int32(u), To: int32(v)})
		}
	}
	return graph.NewFromEdges(n, edges, false)
}

// Lollipop returns a clique of cliqueSize with a path of pathLen hanging off
// vertex 0 — the textbook partial-redundancy example (the clique is a common
// sub-DAG for every path vertex).
func Lollipop(cliqueSize, pathLen int) *graph.Graph {
	n := cliqueSize + pathLen
	var edges []graph.Edge
	for u := 0; u < cliqueSize; u++ {
		for v := u + 1; v < cliqueSize; v++ {
			edges = append(edges, graph.Edge{From: int32(u), To: int32(v)})
		}
	}
	prev := int32(0)
	for i := 0; i < pathLen; i++ {
		next := int32(cliqueSize + i)
		edges = append(edges, graph.Edge{From: prev, To: next})
		prev = next
	}
	return graph.NewFromEdges(n, edges, false)
}

// Tree returns a random tree on n vertices: vertex i attaches to a uniform
// earlier vertex. Trees are all articulation points, the extreme
// decomposition case.
func Tree(n int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{From: int32(r.Intn(i)), To: int32(i)})
	}
	return graph.NewFromEdges(n, edges, false)
}

// WithRandomWeights returns a weighted copy of g with integer edge weights
// drawn uniformly from [1, maxW]. Integer weights keep shortest-path-length
// ties exact under float64 arithmetic (see internal/brandes's weighted
// engine notes).
func WithRandomWeights(g *graph.Graph, maxW int, seed int64) *graph.Graph {
	if maxW < 1 {
		maxW = 1
	}
	r := rand.New(rand.NewSource(seed))
	var wedges []graph.WeightedEdge
	for _, e := range g.Edges() {
		wedges = append(wedges, graph.WeightedEdge{
			From: e.From, To: e.To, W: float64(1 + r.Intn(maxW)),
		})
	}
	return graph.NewWeightedFromEdges(g.NumVertices(), wedges, g.Directed())
}

// Caveman returns numCliques cliques of cliqueSize arranged in a ring, each
// consecutive pair joined by a single bridge edge; every bridge endpoint is
// an articulation point. (With a ring the bridge edges form a cycle, so use
// ring=false for a path arrangement with strictly tree-like block structure.)
func Caveman(numCliques, cliqueSize int, ring bool) *graph.Graph {
	n := numCliques * cliqueSize
	var edges []graph.Edge
	for c := 0; c < numCliques; c++ {
		base := c * cliqueSize
		for u := 0; u < cliqueSize; u++ {
			for v := u + 1; v < cliqueSize; v++ {
				edges = append(edges, graph.Edge{From: int32(base + u), To: int32(base + v)})
			}
		}
		if c+1 < numCliques {
			edges = append(edges, graph.Edge{From: int32(base), To: int32(base + cliqueSize)})
		}
	}
	if ring && numCliques > 2 {
		edges = append(edges, graph.Edge{From: int32((numCliques - 1) * cliqueSize), To: 0})
	}
	return graph.NewFromEdges(n, edges, false)
}
