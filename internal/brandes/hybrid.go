package brandes

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// hybrid is the Ligra-style BC [25] built on direction-optimizing BFS [33]:
// each level is either the top-down push or a bottom-up pull (every
// undiscovered vertex sums σ over its in-neighbours one level up), chosen by
// frontier edge volume with Beamer's α=14, β=24 heuristics, and the backward
// phase is successor-pull.
func hybrid(g *graph.Graph, workers int) ([]float64, error) {
	const alphaDiv, betaDiv = 14, 24
	sw, err := newSweep("hybrid", g, workers, true)
	if err != nil {
		return nil, err
	}
	n, dist, sigma, visited, bag := g.NumVertices(), sw.dist, sw.sigma, sw.visited, sw.bag
	var unexplored int64
	var bottomUp bool
	return sw.run(func(d int32, frontier []graph.V) []graph.V {
		if d == 1 {
			unexplored, bottomUp = g.NumArcs(), false
		}
		if !bottomUp {
			var fe int64
			for _, u := range frontier {
				fe += int64(g.OutDegree(u))
			}
			bottomUp = fe > unexplored/alphaDiv
			unexplored -= fe
		} else if len(frontier) < n/betaDiv {
			bottomUp = false
		}
		if !bottomUp {
			return sw.push(d, frontier, nil)
		}
		// Bottom-up: owned σ writes.
		par.ForWorker(n, sw.p, 0, func(w, vi int) {
			v := graph.V(vi)
			if dist[v] >= 0 {
				return
			}
			var sg float64
			for _, u := range g.In(v) {
				// Atomic: u may be claimed at level d concurrently, which
				// matters for the synchronization only, never the logic.
				if atomic.LoadInt32(&dist[u]) == d-1 {
					sg += sigma[u]
				}
			}
			if sg > 0 {
				atomic.StoreInt32(&dist[v], d)
				sigma[v] = sg
				visited.TrySet(vi)
				bag.Add(w, v)
			}
		})
		return sw.drain()
	}, sw.backSuccs)
}
