package decompose

// Folded reports whether local vertex l is γ-folded: out of the root set and
// out of the swept graph.
func (s *Subgraph) Folded(l int32) bool { return s.foldedInto[l] >= 0 }
