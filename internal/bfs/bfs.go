// Package bfs provides the breadth-first-search substrate: serial BFS with
// the blocked-region variants used to count the α and β quantities of the
// decomposition (§3.1: "the number of vertices which a can reach without
// passing through SGi"), and the direction-optimizing switch heuristic
// (Beamer et al. [33]) the σ-BFS sweeps of internal/core share.
package bfs

import "repro/internal/graph"

// Unreached marks vertices not reached by a traversal.
const Unreached = int32(-1)

// HybridAlpha is the direction-optimizing switch parameter of Beamer et al.
// [33]: go bottom-up when the frontier's out-edge volume exceeds
// 1/HybridAlpha of the unexplored edge volume.
const HybridAlpha = 14

// DefaultBottomUpFrac is the frontier/unvisited vertex-ratio threshold the
// σ-BFS sweeps (internal/core) use when Options.BottomUpFrac is unset. It is
// the vertex-count analogue of the HybridAlpha edge-volume rule — cheaper to
// evaluate inside the per-root sweep, where frontier edge volumes would have
// to be re-summed every level for every root.
const DefaultBottomUpFrac = 1.0 / HybridAlpha

// ShouldBottomUp is the shared vertex-ratio heuristic: switch to a bottom-up
// sweep when the frontier holds more than frac of the still-unvisited
// vertices. frac <= 0 disables bottom-up entirely.
func ShouldBottomUp(frontier, unvisited int, frac float64) bool {
	if frac <= 0 || unvisited <= 0 {
		return false
	}
	return float64(frontier) > frac*float64(unvisited)
}

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
