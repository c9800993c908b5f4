package decompose

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Mutation support for incremental BC (internal/core.Incremental): an edge
// whose endpoints share one sub-graph can be inserted or removed without
// re-partitioning — shortest paths between sub-graph vertices can never
// leave the sub-graph either before or after the change, so the partition
// stays valid (conservatively so after a block-splitting removal). The local
// CSR and the γ/root bookkeeping always need refreshing; α/β also need a
// refresh when reachability *through* the sub-graph can carry outside
// regions (directed graphs, and undirected graphs once a removal may have
// split a sub-graph internally) — internal/core.applyLocal decides.

// MutateEdge adds (add=true) or removes the local edge between lu and lv,
// rebuilding the sub-graph's CSR into arrays of its own. For undirected
// decompositions both arc directions change; for directed ones exactly the
// arc lu->lv. The edit is made on the whole sub-graph — the γ-folded
// vertices' arcs are put back first, so the duplicate and absent checks see
// them and an edit at a folded leaf is an edit like any other — and the rows
// stay whole until RefreshRoots folds again against the mutated graph.
// Weighted sub-graphs are not supported (weighted incremental BC is future
// work).
func (s *Subgraph) MutateEdge(add bool, lu, lv int32, directed bool) error {
	if s.wts != nil {
		return fmt.Errorf("decompose: MutateEdge on weighted sub-graph")
	}
	if lu == lv {
		return fmt.Errorf("decompose: self-loop")
	}
	if lu < 0 || lv < 0 || int(lu) >= s.NumVerts() || int(lv) >= s.NumVerts() {
		return fmt.Errorf("decompose: local id out of range")
	}
	offs, adj, _ := s.unfolded()
	find := func(a, b int32) (int, bool) {
		i, ok := slices.BinarySearch(adj[offs[a]:offs[a+1]], b)
		return int(offs[a]) + i, ok
	}
	if _, has := find(lu, lv); has == add {
		if add {
			return fmt.Errorf("decompose: arc %d->%d already present", lu, lv)
		}
		return fmt.Errorf("decompose: arc %d->%d absent", lu, lv)
	}
	edit := func(a, b int32) {
		at, _ := find(a, b)
		step := int64(1)
		if add {
			adj = slices.Insert(adj, at, b)
		} else {
			adj = slices.Delete(adj, at, at+1)
			step = -1
		}
		for l := int(a) + 1; l < len(offs); l++ {
			offs[l] += step
		}
	}
	edit(lu, lv)
	if !directed {
		edit(lv, lu)
	}
	s.offs, s.adj = offs, adj
	for l := range s.foldedInto {
		s.foldedInto[l] = -1
	}
	s.dropIn()
	return nil
}

// RefreshRoots recomputes γ and the root set of sub-graph si against the
// decomposition's (updated) graph and strips the vertices it folds from the
// rows again; call after MutateEdge and after swapping in the mutated graph
// with SetGraph.
func (d *Decomposition) RefreshRoots(si int, disableGamma bool) {
	if d.G.Directed() {
		d.G.EnsureTranspose()
	}
	d.Subgraphs[si].fold(d.G, disableGamma)
}

// SetGraph swaps the underlying graph after an edge mutation. The caller
// guarantees the new graph differs only by intra-sub-graph edges.
func (d *Decomposition) SetGraph(g *graph.Graph) { d.G = g }

// RecomputeAlphaBeta refreshes every sub-graph's α/β against the current
// sub-graph CSRs and folds, keeping the partition. Needed after
// intra-sub-graph arc changes whenever reachability through the mutated
// sub-graph can shift other sub-graphs' counts: always on directed graphs, and
// on undirected graphs after a removal may have split a sub-graph internally
// (and after insertions while such a split persists). The composition
// (alphabeta.go) labels the components of every sub-graph as it is now, so a
// split shows; it promises itself no connectivity.
//
// It is copy-on-change: the new values are compared with the ones in place,
// and only a sub-graph with a value that moved is written — after being
// replaced in d.Subgraphs by its CloneForAlphaBeta, unless owned marks it as
// a clone the caller made already. The indices of the sub-graphs whose values
// moved are returned in increasing order.
func (d *Decomposition) RecomputeAlphaBeta(owned map[int]bool) (changed []int) {
	return d.composeAlphaBeta(false, func(si int) bool { return !owned[si] })
}
