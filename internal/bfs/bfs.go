// Package bfs provides the breadth-first-search substrate: serial BFS with
// the blocked-region variants used to count the α and β quantities of the
// decomposition (§3.1: "the number of vertices which a can reach without
// passing through SGi"). The σ-counting sweeps live in internal/core, which
// also owns their direction choice (Beamer et al. [33]): it compares the two
// scan volumes it already tracks per level, so there is no switch parameter
// to share.
package bfs

import "repro/internal/graph"

// Unreached marks vertices not reached by a traversal.
const Unreached = int32(-1)

// Distances returns BFS distances from s over out-arcs; unreached vertices
// get Unreached.
func Distances(g *graph.Graph, s graph.V) []int32 {
	return DistancesBlocked(g, s, nil)
}

// DistancesBlocked is Distances but never enters a vertex v (other than s
// itself) for which blocked(v) is true. A nil blocked blocks nothing.
func DistancesBlocked(g *graph.Graph, s graph.V, blocked func(graph.V) bool) []int32 {
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[s] = 0
	frontier := []graph.V{s}
	var next []graph.V
	for d := int32(1); len(frontier) > 0; d++ {
		next = next[:0]
		for _, u := range frontier {
			for _, v := range g.Out(u) {
				if dist[v] != Unreached {
					continue
				}
				if blocked != nil && blocked(v) {
					continue
				}
				dist[v] = d
				next = append(next, v)
			}
		}
		frontier, next = next, frontier
	}
	return dist
}

// ReachableCount returns the number of vertices reachable from s (counting s)
// without entering blocked vertices. Used for α of articulation points.
func ReachableCount(g *graph.Graph, s graph.V, blocked func(graph.V) bool) int64 {
	dist := DistancesBlocked(g, s, blocked)
	var c int64
	for _, d := range dist {
		if d != Unreached {
			c++
		}
	}
	return c
}

// ReverseReachableCount counts vertices that can reach s over out-arcs (i.e.
// forward reachability on the transpose), without entering blocked vertices.
// Used for β of articulation points on directed graphs; for undirected
// graphs it equals ReachableCount.
func ReverseReachableCount(g *graph.Graph, s graph.V, blocked func(graph.V) bool) int64 {
	if !g.Directed() {
		return ReachableCount(g, s, blocked)
	}
	return ReachableCount(g.Transpose(), s, blocked)
}
