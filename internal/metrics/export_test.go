package metrics

// Add moves the level by n (use a negative n to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }
