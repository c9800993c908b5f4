// Package graph provides the Compressed Sparse Row (CSR) graph substrate the
// whole repository is built on, mirroring the storage the paper uses (§5.1:
// "the graphs are stored in Compressed Sparse Row (CSR) format").
//
// Graphs are directed or undirected, and unweighted unless built by
// NewWeightedFromEdges (positive arc weights; see weighted.go). An undirected
// graph stores each edge as two arcs, so NumArcs == 2*NumEdges for it.
// Vertices are dense int32 identifiers in [0, NumVertices()).
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// V is the vertex identifier type. The repository uses 32-bit ids throughout
// for cache efficiency, matching the scale of the paper's inputs (<= a few
// million vertices).
type V = int32

// ErrPathCountOverflow is what every betweenness engine returns, instead of
// scores, when a shortest-path count σ reaches +Inf: some vertex is reached
// over more than ~1.8·10³⁰⁸ shortest paths from one source, and every score
// that divides by its σ would be wrong (σ/+Inf reads 0, +Inf/+Inf NaN). An
// inexact σ, past 2⁵³, is not an error: it rounds the scores, it does not
// corrupt them.
var ErrPathCountOverflow = errors.New("shortest-path count overflows float64")

// Edge is a single (From, To) pair in an edge list.
type Edge struct {
	From, To V
}

// Graph is an immutable CSR graph. For directed graphs the in-adjacency
// (transpose) is built lazily on first use and cached; for undirected graphs
// the out-adjacency is symmetric so the transpose is the graph itself.
type Graph struct {
	n        int
	directed bool
	offs     []int64   // len n+1
	adj      []V       // out-neighbors, sorted per vertex
	wts      []float64 // arc weights, nil for unweighted graphs

	inOffs []int64 // directed only, lazy
	inAdj  []V
	inWts  []float64
}

// NewFromEdges builds a graph with n vertices from an edge list. Self-loops
// are dropped and parallel edges are deduplicated (both are standard
// preprocessing for exact BC: self-loops never lie on shortest paths and
// multi-arcs would inflate σ counts). For undirected graphs each input edge
// {u,v} is stored as the two arcs u->v and v->u regardless of input order,
// and duplicate opposite-order inputs collapse. Edges with endpoints outside
// [0, n) cause a panic, since silent truncation would corrupt experiments.
// The arcs are counted and placed row by row, and the one canonicaliser
// behind NewFromCSRUnsorted makes the rows canonical.
func NewFromEdges(n int, edges []Edge, directed bool) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	offs := make([]int64, n+1)
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n))
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
	next := slices.Clone(offs[:n])
	for _, e := range edges {
		adj[next[e.From]] = e.To
		next[e.From]++
		if !directed {
			adj[next[e.To]] = e.From
			next[e.To]++
		}
	}
	return canonicalize(n, offs, adj, nil, directed)
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumArcs returns the number of stored arcs (directed edges). For an
// undirected graph this is twice the number of edges.
func (g *Graph) NumArcs() int64 { return g.offs[g.n] }

// NumEdges returns the number of logical edges: arcs for a directed graph,
// arcs/2 for an undirected one.
func (g *Graph) NumEdges() int64 {
	if g.directed {
		return g.NumArcs()
	}
	return g.NumArcs() / 2
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u V) int { return int(g.offs[u+1] - g.offs[u]) }

// Out returns the out-neighbors of u as a shared, read-only slice.
func (g *Graph) Out(u V) []V { return g.adj[g.offs[u]:g.offs[u+1]] }

// buildTranspose materializes the in-adjacency for directed graphs.
func (g *Graph) buildTranspose() {
	deg := make([]int64, g.n+1)
	for _, v := range g.adj {
		deg[v+1]++
	}
	inOffs := make([]int64, g.n+1)
	for i := 0; i < g.n; i++ {
		inOffs[i+1] = inOffs[i] + deg[i+1]
	}
	inAdj := make([]V, inOffs[g.n])
	var inWts []float64
	if g.wts != nil {
		inWts = make([]float64, inOffs[g.n])
	}
	cur := make([]int64, g.n)
	for u := 0; u < g.n; u++ {
		base := g.offs[u]
		for i, v := range g.Out(V(u)) {
			pos := inOffs[v] + cur[v]
			inAdj[pos] = V(u)
			if inWts != nil {
				inWts[pos] = g.wts[base+int64(i)]
			}
			cur[v]++
		}
	}
	g.inOffs, g.inAdj, g.inWts = inOffs, inAdj, inWts
}

// In returns the in-neighbors of u. For undirected graphs it is Out(u).
// The first call on a directed graph materializes the transpose; callers that
// will use In concurrently must call EnsureTranspose once beforehand.
func (g *Graph) In(u V) []V {
	if !g.directed {
		return g.Out(u)
	}
	if g.inOffs == nil {
		g.buildTranspose()
	}
	return g.inAdj[g.inOffs[u]:g.inOffs[u+1]]
}

// InDegree returns the in-degree of u (== OutDegree for undirected graphs).
func (g *Graph) InDegree(u V) int { return len(g.In(u)) }

// EnsureTranspose forces construction of the in-adjacency so subsequent In
// calls are read-only and goroutine-safe.
func (g *Graph) EnsureTranspose() {
	if g.directed && g.inOffs == nil {
		g.buildTranspose()
	}
}

// HasArc reports whether the arc u->v exists, by binary search.
func (g *Graph) HasArc(u, v V) bool {
	row := g.Out(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
}

// Edges returns the logical edge list. For undirected graphs each edge
// appears once with From < To.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(V(u)) {
			if g.directed || V(u) < v {
				out = append(out, Edge{V(u), v})
			}
		}
	}
	return out
}

// Undirected returns the graph itself when already undirected, otherwise the
// symmetrized, unweighted version (every arc made bidirectional). The paper's
// decomposition step operates on the underlying undirected structure
// (Algorithm 1's GETUNDG). A vertex's undirected row is the union of its out-
// and in-rows, both sorted, so the rows are merged one after the other into
// an array with room for both and nothing is sorted; on a directed graph this
// builds the transpose (see In for what that asks of concurrent callers).
func (g *Graph) Undirected() *Graph {
	if !g.directed {
		return g
	}
	g.EnsureTranspose()
	offs := make([]int64, g.n+1)
	adj := make([]V, 2*len(g.adj))
	at := 0
	for u := 0; u < g.n; u++ {
		out, in := g.adj[g.offs[u]:g.offs[u+1]], g.inAdj[g.inOffs[u]:g.inOffs[u+1]]
		at += mergeRows(adj[at:], out, in)
		offs[u+1] = int64(at)
	}
	return &Graph{n: g.n, offs: offs, adj: adj[:at:at]}
}

// mergeRows writes the union of the sorted rows a and b to dst, sorted and
// without duplicates, and returns its length.
func mergeRows(dst, a, b []V) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		dst[n] = min(x, y)
		n++
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	n += copy(dst[n:], a[i:])
	n += copy(dst[n:], b[j:])
	return n
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s, n=%d, m=%d}", kind, g.n, g.NumEdges())
}
