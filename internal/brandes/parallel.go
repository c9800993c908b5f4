package brandes

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/par"
)

// levels holds the per-level frontier buckets of one BFS ("Levels[]" in the
// paper's Algorithm 2).
type levels struct {
	buckets [][]graph.V
}

func (l *levels) level(d int) []graph.V {
	if d < len(l.buckets) {
		return l.buckets[d]
	}
	return nil
}

func (l *levels) reset() {
	for i := range l.buckets {
		l.buckets[i] = l.buckets[i][:0]
	}
	l.buckets = l.buckets[:0]
}

func (l *levels) push(d int, vs ...graph.V) {
	for len(l.buckets) <= d {
		l.buckets = append(l.buckets, nil)
	}
	l.buckets[d] = append(l.buckets[d], vs...)
}

// forwardLevelSync runs the parallel level-synchronous σ/dist phase shared by
// the preds and succs variants: frontier-parallel expansion with CAS
// discovery and atomic σ accumulation.
func forwardLevelSync(g *graph.Graph, s graph.V, p int,
	dist []int32, sigma []float64, visited *bitset.Bitset, lv *levels, bag *par.Bag[graph.V]) {
	dist[s] = 0
	sigma[s] = 1
	visited.Set(int(s))
	lv.push(0, s)
	frontier := lv.level(0)
	for d := int32(1); len(frontier) > 0; d++ {
		par.ForWorker(len(frontier), p, 0, func(w, i int) {
			u := frontier[i]
			for _, v := range g.Out(u) {
				if visited.TrySet(int(v)) {
					atomic.StoreInt32(&dist[v], d)
					bag.Add(w, v)
					atomicAddFloat64(&sigma[v], sigma[u])
					continue
				}
				// Already claimed. A still-unset distance means the claim
				// happened during this very level (claims only occur while
				// expanding level d), so v is at level d either way.
				if dv := atomic.LoadInt32(&dist[v]); dv == d || dv < 0 {
					atomicAddFloat64(&sigma[v], sigma[u])
				}
			}
		})
		next := bag.Drain(nil)
		lv.push(int(d), next...)
		frontier = lv.level(int(d))
	}
}

// Preds is the Bader–Madduri fine-grained level-synchronous parallelization
// [12]: predecessor lists are built during the forward phase with atomic
// slot reservation, and the backward phase pushes δ updates to predecessors
// with atomic float adds (the lock-equivalent the later variants remove).
func Preds(g *graph.Graph, workers int) []float64 {
	n := g.NumVertices()
	p := par.Workers(workers)
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	g.EnsureTranspose()
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	visited := bitset.New(n)
	lv := &levels{}
	bag := par.NewBag[graph.V](p)
	predOffs := make([]int64, n+1)
	for v := 0; v < n; v++ {
		predOffs[v+1] = predOffs[v] + int64(g.InDegree(graph.V(v)))
	}
	predBuf := make([]graph.V, predOffs[n])
	predLen := make([]int32, n)

	for s := graph.V(0); int(s) < n; s++ {
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			predLen[i] = 0
		}
		visited.Reset()
		lv.reset()

		// Forward with predecessor collection.
		dist[s] = 0
		sigma[s] = 1
		visited.Set(int(s))
		lv.push(0, s)
		frontier := lv.level(0)
		for d := int32(1); len(frontier) > 0; d++ {
			par.ForWorker(len(frontier), p, 0, func(w, i int) {
				u := frontier[i]
				for _, v := range g.Out(u) {
					atLevelD := false
					if visited.TrySet(int(v)) {
						atomic.StoreInt32(&dist[v], d)
						bag.Add(w, v)
						atLevelD = true
					} else if dv := atomic.LoadInt32(&dist[v]); dv == d || dv < 0 {
						// dv < 0: claimed during this level by another
						// worker whose dist store is still in flight.
						atLevelD = true
					}
					if atLevelD {
						atomicAddFloat64(&sigma[v], sigma[u])
						slot := atomic.AddInt32(&predLen[v], 1) - 1
						predBuf[predOffs[v]+int64(slot)] = u
					}
				}
			})
			next := bag.Drain(nil)
			lv.push(int(d), next...)
			frontier = lv.level(int(d))
		}

		// Backward: per level, push to predecessors with atomic adds.
		for d := len(lv.buckets) - 1; d >= 0; d-- {
			bucket := lv.level(d)
			par.For(len(bucket), p, func(i int) {
				v := bucket[i]
				coef := (1 + delta[v]) / sigma[v]
				lo := predOffs[v]
				for k := int32(0); k < predLen[v]; k++ {
					u := predBuf[lo+int64(k)]
					atomicAddFloat64(&delta[u], sigma[u]*coef)
				}
				if v != s {
					bc[v] += delta[v]
				}
			})
		}
	}
	return bc
}

// Succs is the Madduri et al. successor-based variant [13]: identical
// forward phase, but the backward sweep has each vertex pull from its DAG
// successors (out-neighbors one level deeper), so every δ write is owned and
// phase 2 needs no synchronization.
func Succs(g *graph.Graph, workers int) []float64 {
	n := g.NumVertices()
	p := par.Workers(workers)
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	visited := bitset.New(n)
	lv := &levels{}
	bag := par.NewBag[graph.V](p)

	for s := graph.V(0); int(s) < n; s++ {
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
		}
		visited.Reset()
		lv.reset()
		forwardLevelSync(g, s, p, dist, sigma, visited, lv, bag)
		backwardSuccs(g, s, p, dist, sigma, delta, lv, bc)
	}
	return bc
}

// backwardSuccs is the successor-pull dependency accumulation shared by the
// succs, lockSyncFree and hybrid variants.
func backwardSuccs(g *graph.Graph, s graph.V, p int,
	dist []int32, sigma, delta []float64, lv *levels, bc []float64) {
	for d := len(lv.buckets) - 1; d >= 0; d-- {
		bucket := lv.level(d)
		par.For(len(bucket), p, func(i int) {
			v := bucket[i]
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

// LockSyncFree is the Tan et al. variant [14]: no lock synchronization in
// either phase. Discovery still claims vertices (wait-free CAS bitset), but
// σ is computed by each newly discovered vertex pulling from its in-neighbors
// one level up — σ writes are owned, eliminating the atomic adds of the
// push-based forward phase — and the backward phase is successor-pull.
func LockSyncFree(g *graph.Graph, workers int) []float64 {
	n := g.NumVertices()
	p := par.Workers(workers)
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	g.EnsureTranspose()
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	visited := bitset.New(n)
	lv := &levels{}
	bag := par.NewBag[graph.V](p)

	for s := graph.V(0); int(s) < n; s++ {
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
		}
		visited.Reset()
		lv.reset()

		dist[s] = 0
		sigma[s] = 1
		visited.Set(int(s))
		lv.push(0, s)
		frontier := lv.level(0)
		for d := int32(1); len(frontier) > 0; d++ {
			// Discover the next level.
			par.ForWorker(len(frontier), p, 0, func(w, i int) {
				u := frontier[i]
				for _, v := range g.Out(u) {
					if visited.TrySet(int(v)) {
						dist[v] = d
						bag.Add(w, v)
					}
				}
			})
			next := bag.Drain(nil)
			// Owned σ pull: each new vertex sums its in-neighbors' σ.
			par.For(len(next), p, func(i int) {
				v := next[i]
				var sg float64
				for _, u := range g.In(v) {
					if dist[u] == d-1 {
						sg += sigma[u]
					}
				}
				sigma[v] = sg
			})
			lv.push(int(d), next...)
			frontier = lv.level(int(d))
		}
		backwardSuccs(g, s, p, dist, sigma, delta, lv, bc)
	}
	return bc
}

// Async approximates the Prountzos–Pingali asynchronous algorithm [11] at the
// granularity the paper exploits: sources are processed concurrently by a
// dynamic scheduler (no level barriers between sources), each worker running
// the serial successor-pull sweep on its own pooled scratch and accumulating
// into a private BC array merged at the end, so one worker reproduces the
// serial successor-pull sweep over every source bit for bit. Like the
// original Galois implementation it only handles undirected graphs.
func Async(g *graph.Graph, workers int) ([]float64, error) {
	if g.Directed() {
		return nil, fmt.Errorf("brandes: async variant only supports undirected graphs")
	}
	n := g.NumVertices()
	p := par.Workers(workers)
	scratch := make([]*serialScratch, p)
	partial := make([][]float64, p)
	par.ForWorker(n, p, 1, func(w, s int) {
		if scratch[w] == nil {
			scratch[w] = newSerialScratch(g, false)
			partial[w] = make([]float64, n)
		}
		scratch[w].runSourceSuccs(g, graph.V(s), partial[w])
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
	return bc, nil
}
