package decompose

import (
	"slices"
	"sort"

	"repro/internal/graph"
)

// LocalID returns the local id of global vertex v in sg, or -1. It searches
// two ascending runs: Roots lists the swept vertices in global-id order, and
// the folded vertices are the tail of Verts, in global-id order too.
func (s *Subgraph) LocalID(v graph.V) int32 {
	if i, ok := sort.Find(len(s.Roots), func(i int) int { return int(v) - int(s.Verts[s.Roots[i]]) }); ok {
		return s.Roots[i]
	}
	if i, ok := slices.BinarySearch(s.Verts[len(s.Roots):], v); ok {
		return int32(len(s.Roots) + i)
	}
	return -1
}

// Weighted reports whether the sub-graph carries arc weights.
func (s *Subgraph) Weighted() bool { return s.wts != nil }

// Directed reports whether the parent graph was directed.
func (s *Subgraph) Directed() bool { return s.directed }
