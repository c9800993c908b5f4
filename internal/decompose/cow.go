package decompose

// Copy-on-write clone support for immutable decomposition epochs
// (internal/core.Incremental): a mutation never edits the published
// decomposition in place. Instead the mutator shallow-clones the
// Decomposition, swaps cloned Subgraphs in for the ones a mutation will
// write, applies MutateEdge/RefreshRoots to the clones, lets
// RecomputeAlphaBeta — which holds every new α/β before it writes one — clone
// by itself the other sub-graphs whose values moved and no more, and
// publishes the finished epoch with one atomic pointer store. Readers holding
// the previous epoch keep a fully consistent, never-changing view.
//
// The clones share everything a mutation does not write; the incidence forest
// is shared by every epoch of a partition. Both flavors drop the lazy EnsureIn
// transpose rather than share it: the original's may be built concurrently by
// readers of the old epoch, and reading its fields outside their sync.Once
// would race. Clones rebuild it lazily if and when an engine needs it.

// CloneShallow returns a Decomposition sharing every Subgraph (and the graph
// and the incidence forest) with d. Callers replace entries of the returned
// Subgraphs slice with clones before mutating, and swap in the post-mutation
// graph with SetGraph.
func (d *Decomposition) CloneShallow() *Decomposition {
	return &Decomposition{
		G:               d.G,
		Subgraphs:       append([]*Subgraph(nil), d.Subgraphs...),
		TopIndex:        d.TopIndex,
		NumArticulation: d.NumArticulation,
		forest:          d.forest,
	}
}

// CloneForMutation returns a copy of s prepared for MutateEdge and
// RefreshRoots, together or either alone: the γ/root/fold bookkeeping and α/β
// arrays are deep-copied (MutateEdge clears foldedInto; RefreshRoots rewrites
// it and Gamma and reuses Roots' backing array in place; RecomputeAlphaBeta
// rewrites Alpha/Beta), while the CSR, vertex list and boundary flags are
// shared — MutateEdge and RefreshRoots both replace offs/adj wholesale before
// they edit or strip them, so the pre-mutation arrays are only ever read.
func (s *Subgraph) CloneForMutation() *Subgraph {
	return &Subgraph{
		ID:         s.ID,
		Verts:      s.Verts,
		offs:       s.offs,
		adj:        s.adj,
		wts:        s.wts,
		foldedInto: append([]int32(nil), s.foldedInto...),
		foldedWt:   s.foldedWt,
		IsArt:      s.IsArt,
		Arts:       s.Arts,
		Alpha:      append([]float64(nil), s.Alpha...),
		Beta:       append([]float64(nil), s.Beta...),
		Gamma:      append([]int32(nil), s.Gamma...),
		Roots:      append([]int32(nil), s.Roots...),
		directed:   s.directed,
	}
}

// CloneForAlphaBeta returns a copy of s whose Alpha/Beta arrays are owned
// (RecomputeAlphaBeta makes one for a sub-graph whose values moved, before it
// writes them) and everything else — CSR, vertex list, γ/roots/folds — is
// shared with the original, which a pure α/β refresh never touches.
func (s *Subgraph) CloneForAlphaBeta() *Subgraph {
	return &Subgraph{
		ID:         s.ID,
		Verts:      s.Verts,
		offs:       s.offs,
		adj:        s.adj,
		wts:        s.wts,
		foldedInto: s.foldedInto,
		foldedWt:   s.foldedWt,
		IsArt:      s.IsArt,
		Arts:       s.Arts,
		Alpha:      append([]float64(nil), s.Alpha...),
		Beta:       append([]float64(nil), s.Beta...),
		Gamma:      s.Gamma,
		Roots:      s.Roots,
		directed:   s.directed,
	}
}
