package brandes

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/par"
)

// sweep is the level-synchronous frame of the fine-grained parallel baselines
// (preds, succs, lockSyncFree, hybrid), which differ only in how a level is
// discovered and how dependencies flow back (Quader's comparative study,
// PAPERS.md): the per-call arrays, the per-source reset and seed, and the
// level loop that records each level and checks its σ once.
type sweep struct {
	g       *graph.Graph
	p       int
	dist    []int32
	sigma   []float64
	delta   []float64
	visited *bitset.Bitset
	bag     *par.Bag[graph.V]
	order   []graph.V // the current source's levels in discovery order ("Levels[]")
	starts  []int     // level d is order[starts[d]:starts[d+1]]
	next    []graph.V // the level being drained, reused
	bc      []float64
}

// newSweep allocates the named variant's sweep over g, refusing a weighted
// graph, whose weights a hop count would ignore; in builds the transpose
// first, for the variants that read in-rows.
func newSweep(name string, g *graph.Graph, workers int, in bool) (*sweep, error) {
	if g.Weighted() {
		return nil, fmt.Errorf("brandes: %q counts hops and would ignore the graph's edge weights (use serial or apgre)", name)
	}
	if in {
		g.EnsureTranspose()
	}
	n, p := g.NumVertices(), par.Workers(workers)
	return &sweep{g: g, p: p, dist: make([]int32, n), sigma: make([]float64, n),
		delta: make([]float64, n), visited: bitset.New(n), bag: par.NewBag[graph.V](p),
		bc: make([]float64, n)}, nil
}

// run sweeps from every source. step(d, frontier) claims level d from level
// d-1 — dist, the visited bit and the final σ of each vertex it claims — and
// returns it (sw.drain); back(s) adds s's dependencies into sw.bc once every
// level is recorded. A level holding a σ of +Inf ends the run with
// graph.ErrPathCountOverflow.
func (sw *sweep) run(step func(d int32, frontier []graph.V) []graph.V, back func(s graph.V)) ([]float64, error) {
	for s := graph.V(0); int(s) < len(sw.bc); s++ {
		for i := range sw.dist {
			sw.dist[i] = -1
		}
		clear(sw.sigma)
		clear(sw.delta)
		sw.visited.Reset()
		sw.dist[s] = 0
		sw.sigma[s] = 1
		sw.visited.Set(int(s))
		sw.order = append(sw.order[:0], s)
		sw.starts = append(sw.starts[:0], 0, 1)
		for d, lo := int32(1), 0; lo < len(sw.order); d++ {
			frontier := sw.order[lo:]
			lo = len(sw.order)
			level := step(d, frontier)
			for _, v := range level {
				if math.IsInf(sw.sigma[v], 1) {
					return nil, graph.ErrPathCountOverflow
				}
			}
			sw.order = append(sw.order, level...)
			sw.starts = append(sw.starts, len(sw.order))
		}
		back(s)
	}
	return sw.bc, nil
}

// level returns level d of the current source.
func (sw *sweep) level(d int) []graph.V { return sw.order[sw.starts[d]:sw.starts[d+1]] }

// drain empties the bag into the reused level buffer.
func (sw *sweep) drain() []graph.V {
	sw.next = sw.bag.Drain(sw.next[:0])
	return sw.next
}

// push is the top-down step of preds, succs and hybrid: each frontier vertex
// claims its undiscovered out-neighbours with a CAS on the visited bitset,
// adds its σ into every out-neighbour at level d atomically (children are
// shared) and, given predecessor lists, records itself as the child's.
func (sw *sweep) push(d int32, frontier []graph.V, pl *predLists) []graph.V {
	g, dist, sigma, visited, bag := sw.g, sw.dist, sw.sigma, sw.visited, sw.bag
	par.ForWorker(len(frontier), sw.p, 0, func(w, i int) {
		u := frontier[i]
		for _, v := range g.Out(u) {
			if visited.TrySet(int(v)) {
				atomic.StoreInt32(&dist[v], d)
				bag.Add(w, v)
			} else if dv := atomic.LoadInt32(&dist[v]); dv >= 0 && dv != d {
				// Claimed at an earlier level (an unset distance is a claim
				// of this level whose store is still in flight).
				continue
			}
			par.AddFloat64(&sigma[v], sigma[u])
			if pl != nil {
				slot := atomic.AddInt32(&pl.n[v], 1) - 1
				pl.buf[pl.offs[v]+int64(slot)] = u
			}
		}
	})
	return sw.drain()
}

// backSuccs is the successor-pull dependency accumulation of succs,
// lockSyncFree and hybrid: each vertex sums over its DAG successors (out-
// neighbours one level deeper), so every δ write is owned.
func (sw *sweep) backSuccs(s graph.V) {
	g, dist, sigma, delta, bc := sw.g, sw.dist, sw.sigma, sw.delta, sw.bc
	for d := len(sw.starts) - 2; d >= 0; d-- {
		level := sw.level(d)
		par.For(len(level), sw.p, func(i int) {
			v := level[i]
			var acc float64
			for _, w := range g.Out(v) {
				if dist[w] == dist[v]+1 {
					acc += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			delta[v] = acc
			if v != s {
				bc[v] += acc
			}
		})
	}
}

// preds is the Bader–Madduri fine-grained level-synchronous parallelization
// [12]: predecessor lists are built during the top-down push with atomic slot
// reservation, and the backward phase pushes δ to the predecessors with
// atomic float adds (the lock-equivalent the later variants remove).
func preds(g *graph.Graph, workers int) ([]float64, error) {
	sw, err := newSweep("preds", g, workers, true)
	if err != nil {
		return nil, err
	}
	pl := newPredLists(g)
	sigma, delta, bc := sw.sigma, sw.delta, sw.bc
	return sw.run(func(d int32, frontier []graph.V) []graph.V { return sw.push(d, frontier, &pl) },
		func(s graph.V) {
			for d := len(sw.starts) - 2; d >= 0; d-- {
				level := sw.level(d)
				par.For(len(level), sw.p, func(i int) {
					v := level[i]
					coef := (1 + delta[v]) / sigma[v]
					for _, u := range pl.of(v) {
						par.AddFloat64(&delta[u], sigma[u]*coef)
					}
					if v != s {
						bc[v] += delta[v]
					}
				})
			}
			for _, v := range sw.order {
				pl.n[v] = 0
			}
		})
}

// succs is the Madduri et al. successor-based variant [13]: preds' top-down
// push without the predecessor lists, and a successor-pull backward phase
// that needs no synchronization.
func succs(g *graph.Graph, workers int) ([]float64, error) {
	sw, err := newSweep("succs", g, workers, false)
	if err != nil {
		return nil, err
	}
	return sw.run(func(d int32, frontier []graph.V) []graph.V { return sw.push(d, frontier, nil) }, sw.backSuccs)
}

// lockSyncFree is the Tan et al. variant [14]: no lock synchronization in
// either phase. Discovery claims vertices (wait-free CAS bitset), then each new
// vertex pulls σ from its in-neighbours one level up — owned writes instead of
// the push's atomic adds — and the backward phase is successor-pull.
func lockSyncFree(g *graph.Graph, workers int) ([]float64, error) {
	sw, err := newSweep("locksyncfree", g, workers, true)
	if err != nil {
		return nil, err
	}
	dist, sigma, visited, bag := sw.dist, sw.sigma, sw.visited, sw.bag
	return sw.run(func(d int32, frontier []graph.V) []graph.V {
		par.ForWorker(len(frontier), sw.p, 0, func(w, i int) {
			for _, v := range g.Out(frontier[i]) {
				if visited.TrySet(int(v)) {
					dist[v] = d
					bag.Add(w, v)
				}
			}
		})
		next := sw.drain()
		par.For(len(next), sw.p, func(i int) {
			v := next[i]
			var sg float64
			for _, u := range g.In(v) {
				if dist[u] == d-1 {
					sg += sigma[u]
				}
			}
			sigma[v] = sg
		})
		return next
	}, sw.backSuccs)
}

// async approximates the Prountzos–Pingali asynchronous algorithm [11] at the
// granularity the paper exploits: sources are processed concurrently by a
// dynamic scheduler (no level barriers between sources), each worker running
// the serial successor-pull sweep on its own pooled scratch and accumulating
// into a private BC array merged at the end, so one worker reproduces the
// serial successor-pull sweep over every source bit for bit. Like the
// original Galois implementation it only handles undirected graphs.
func async(g *graph.Graph, workers int) ([]float64, error) {
	if g.Weighted() || g.Directed() {
		return nil, errors.New(`brandes: "async" counts hops (no edge weights) on undirected graphs only`)
	}
	n := g.NumVertices()
	p := par.Workers(workers)
	scratch := make([]*serialScratch, p)
	partial := make([][]float64, p)
	var overflow atomic.Bool
	par.ForWorker(n, p, 1, func(w, s int) {
		if overflow.Load() {
			return
		}
		if scratch[w] == nil {
			scratch[w] = newSerialScratch(g, false)
			partial[w] = make([]float64, n)
		}
		if scratch[w].runSourceSuccs(g, graph.V(s), partial[w]) != nil {
			overflow.Store(true)
		}
	})
	bc := make([]float64, n)
	for w, st := range scratch {
		if st == nil {
			continue
		}
		st.release()
		for v, x := range partial[w] {
			bc[v] += x
		}
	}
	if overflow.Load() {
		return nil, graph.ErrPathCountOverflow
	}
	return bc, nil
}
