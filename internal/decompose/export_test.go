package decompose

// Folded reports whether local vertex l is γ-folded: out of the root set and
// out of the swept graph.
func (s *Subgraph) Folded(l int32) bool { return s.foldedInto[l] >= 0 }

// Weighted reports whether the sub-graph carries arc weights.
func (s *Subgraph) Weighted() bool { return s.wts != nil }

// Directed reports whether the parent graph was directed.
func (s *Subgraph) Directed() bool { return s.directed }
