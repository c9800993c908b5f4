package decompose

// Weighted reports whether the sub-graph carries arc weights.
func (s *Subgraph) Weighted() bool { return s.wts != nil }

// Directed reports whether the parent graph was directed.
func (s *Subgraph) Directed() bool { return s.directed }
