package ws

import "fmt"

// Cap returns the number of vertices the sweep is sized for.
func (s *Sweep) Cap() int { return s.capV }

// CheckClean verifies the clean-slot invariants over the whole capacity;
// it exists for tests and debugging (engines rely on sparse resets instead).
func (s *Sweep) CheckClean() error {
	for v := 0; v < s.capV; v++ {
		switch {
		case s.Dist[v] != -1:
			return fmt.Errorf("ws: dirty Dist[%d] = %d", v, s.Dist[v])
		case s.BC[v] != 0:
			return fmt.Errorf("ws: dirty BC[%d] = %g", v, s.BC[v])
		case s.Visited.Get(v):
			return fmt.Errorf("ws: dirty Visited[%d]", v)
		}
		if s.weighted {
			if s.FDist[v] != -1 {
				return fmt.Errorf("ws: dirty FDist[%d] = %g", v, s.FDist[v])
			}
			if s.Done[v] {
				return fmt.Errorf("ws: dirty Done[%d]", v)
			}
		}
	}
	for v, m := range s.LaneSeen {
		if m != 0 {
			return fmt.Errorf("ws: dirty LaneSeen[%d] = %#x", v, m)
		}
		if s.LaneFront[v] != 0 {
			return fmt.Errorf("ws: dirty LaneFront[%d] = %#x", v, s.LaneFront[v])
		}
	}
	for l := range s.LaneRec {
		if x := s.LaneRec[l].Sigma; x != 0 {
			return fmt.Errorf("ws: dirty LaneRec[%d].Sigma = %g (rank %d, lane %d)", l, x, l/LaneWidth, l%LaneWidth)
		}
	}
	return nil
}
