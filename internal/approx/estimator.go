package approx

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/par"
)

// subSampler is the per-sub-graph sampling state.
type subSampler struct {
	sg *decompose.Subgraph
	// perm is a seeded shuffle of sg.Roots, consumed front to back; the
	// prefix perm[:next] is always a uniform without-replacement sample of
	// the root set. Presolved sub-graphs never allocate it.
	perm []int32
	next int
	// sum accumulates ΣC over consumed roots (local ids); once done, it is
	// the sub-graph's exact contribution.
	sum     []float64
	contrib []float64 // per-batch scratch
	done    bool      // every root consumed: contribution is exact
}

func (s *subSampler) rootCount() int { return len(s.sg.Roots) }

// Estimator is a refinable per-sub-graph pivot sampler. It is not safe for
// concurrent use; callers (the bcd registry) serialize access externally.
type Estimator struct {
	d        *decompose.Decomposition
	directed bool
	n        int     // vertices in the whole graph
	norm     float64 // 1/((n-1)(n-2)) — normalized-BC divisor
	seed     int64
	workers  int

	subs       []*subSampler // index-aligned with d.Subgraphs
	open       []int         // indices of sub-graphs still being sampled
	totalRoots int64
	pivots     int
	presolved  int // pivots spent by the construction-time presolve pass

	// batches holds per-batch unbiased estimate vectors of the still-open
	// part of BC (global ids), the bootstrap's resampling units.
	batches [][]float64

	sweeps    []*core.RootSweep // per-worker exact-arithmetic sweeps
	errCached float64
	errValid  bool
	// overflow: a sweep met a path count past float64
	// (graph.ErrPathCountOverflow), so the estimate is meaningless.
	overflow atomic.Bool
}

// NewEstimator prepares sampling state over d (seeded root shuffles) and
// presolves every sub-graph with at most presolveRoots roots exactly. No
// stochastic sampling happens until Refine/EnsureBudget/EnsureEps.
func NewEstimator(d *decompose.Decomposition, opt Options) (*Estimator, error) {
	if d.G.Weighted() {
		return nil, fmt.Errorf("approx: weighted graphs are not supported")
	}
	n := d.G.NumVertices()
	e := &Estimator{
		d:        d,
		directed: d.G.Directed(),
		n:        n,
		norm:     1,
		seed:     opt.Seed,
		workers:  opt.Workers,
	}
	if n > 2 {
		e.norm = 1 / (float64(n-1) * float64(n-2))
	}
	e.rngShuffle(opt.Seed)
	e.presolved = e.pivots
	if e.overflow.Load() {
		e.Release()
		return nil, graph.ErrPathCountOverflow
	}
	return e, nil
}

// rngShuffle builds the per-sub-graph samplers with seeded permutations and
// runs the presolve pass. Split out of NewEstimator only for clarity.
func (e *Estimator) rngShuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var presolve []int
	for i, sg := range e.d.Subgraphs {
		s := &subSampler{sg: sg, sum: make([]float64, sg.NumVerts())}
		e.subs = append(e.subs, s)
		e.totalRoots += int64(len(sg.Roots))
		if len(sg.Roots) <= presolveRoots {
			presolve = append(presolve, i)
			continue
		}
		// Fisher–Yates over a copy; sg.Roots keeps its exact-engine order
		// so the full-budget path can replay it verbatim.
		s.perm = append([]int32(nil), sg.Roots...)
		rng.Shuffle(len(s.perm), func(a, b int) {
			s.perm[a], s.perm[b] = s.perm[b], s.perm[a]
		})
		e.open = append(e.open, i)
	}
	e.runExactSubs(presolve)
}

// ensureSweeps sizes the per-worker scratch pool.
func (e *Estimator) ensureSweeps(p int) {
	for len(e.sweeps) < p {
		e.sweeps = append(e.sweeps, &core.RootSweep{})
	}
}

// growZero returns dst resized to n with every element zeroed.
func growZero(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// runExactSubs finishes the listed sub-graphs exactly. Sub-graphs that were
// never sampled replay sg.Roots in the exact engine's order, which is what
// makes untouched-estimator full-budget runs bit-identical to the exact
// coarse serial path; partially sampled ones finish their permutation tail
// (exact values, root order differs, so last-bit rounding may differ).
func (e *Estimator) runExactSubs(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	p := par.Workers(e.workers)
	e.ensureSweeps(p)
	ran := make([]int, len(idxs))
	par.ForWorker(len(idxs), p, 1, func(w, k int) {
		s := e.subs[idxs[k]]
		roots := s.sg.Roots
		if s.next > 0 {
			roots = s.perm[s.next:]
		}
		sw := e.sweeps[w]
		if sw.Run(s.sg, roots, e.directed) != nil {
			e.overflow.Store(true)
		}
		s.contrib = growZero(s.contrib, s.sg.NumVerts())
		sw.Collect(s.contrib)
		for l, c := range s.contrib {
			if c != 0 {
				s.sum[l] += c
			}
		}
		ran[k] = len(roots)
	})
	for k, si := range idxs {
		s := e.subs[si]
		e.pivots += ran[k]
		s.next = s.rootCount()
		s.done = true
		s.contrib = nil
	}
	e.dropDone()
	e.errValid = false
}

// dropDone removes finished sub-graphs from the open list.
func (e *Estimator) dropDone() {
	open := e.open[:0]
	for _, si := range e.open {
		if !e.subs[si].done {
			open = append(open, si)
		}
	}
	e.open = open
}

// Refine draws one stochastic batch of roughly `budget` pivots, allocated
// across the open sub-graphs proportionally to sub-graph size with at least
// one pivot each (every open sub-graph must appear in every batch for the
// batch vector to be an unbiased estimate of the open part). Returns the
// number of pivots actually run; 0 means the estimate is already exact.
func (e *Estimator) Refine(budget int) int {
	if len(e.open) == 0 || budget <= 0 {
		return 0
	}
	e.errValid = false

	var totalN int64
	for _, si := range e.open {
		totalN += int64(e.subs[si].sg.NumVerts())
	}
	alloc := make([]int, len(e.open))
	for k, si := range e.open {
		s := e.subs[si]
		a := int(int64(budget) * int64(s.sg.NumVerts()) / totalN)
		if a < 1 {
			a = 1
		}
		if rem := s.rootCount() - s.next; a > rem {
			a = rem
		}
		alloc[k] = a
	}

	p := par.Workers(e.workers)
	e.ensureSweeps(p)
	open := append([]int(nil), e.open...)
	par.ForWorker(len(open), p, 1, func(w, k int) {
		s := e.subs[open[k]]
		sw := e.sweeps[w]
		if sw.Run(s.sg, s.perm[s.next:s.next+alloc[k]], e.directed) != nil {
			e.overflow.Store(true)
		}
		s.contrib = growZero(s.contrib, s.sg.NumVerts())
		sw.Collect(s.contrib)
	})

	// Serial fold in sub-graph index order: deterministic for any worker
	// count (each sub-graph's contribution was computed sequentially by one
	// worker; only the fold below touches shared vectors).
	bvec := make([]float64, e.n)
	ran := 0
	for k, si := range open {
		s := e.subs[si]
		scale := float64(s.rootCount()) / float64(alloc[k])
		for l, v := range s.sg.Verts {
			if c := s.contrib[l]; c != 0 {
				s.sum[l] += c
				bvec[v] += scale * c
			}
		}
		s.next += alloc[k]
		if s.next == s.rootCount() {
			s.done = true
			s.contrib = nil
		}
		ran += alloc[k]
	}
	e.pivots += ran
	e.batches = append(e.batches, bvec)
	if len(e.batches) >= maxStoredBatches {
		e.collapseBatches()
	}
	e.dropDone()
	return ran
}

// collapseBatches averages adjacent batch-vector pairs, halving the stored
// count. Pair averages are themselves unbiased batch estimates, and the mean
// over the collapsed set equals the mean over the originals, so the
// bootstrap's variance-of-the-mean target is preserved.
func (e *Estimator) collapseBatches() {
	half := len(e.batches) / 2
	for j := 0; j < half; j++ {
		a, b := e.batches[2*j], e.batches[2*j+1]
		for v := range a {
			a[v] = (a[v] + b[v]) / 2
		}
		e.batches[j] = a
	}
	e.batches = e.batches[:half]
}

// runExact finishes every open sub-graph exactly; afterwards Exact() is true
// and ErrorEstimate() is 0.
func (e *Estimator) runExact() {
	if len(e.open) == 0 {
		return
	}
	e.runExactSubs(append([]int(nil), e.open...))
	e.batches = nil
}

// EnsureBudget refines until at least `pivots` stochastic root sweeps have
// run beyond the construction-time presolve pass. Presolve sweeps are not
// charged against the budget: they cover the many tiny sub-graphs whose
// sweeps are near-free, and charging them would starve the large sub-graphs
// that dominate both cost and variance of exactly the sweeps the caller is
// paying for. Budgets covering every root (>= the vertex count or the total
// root count) switch to the exact schedule. A fresh estimator splits a small
// budget into two batches so the bootstrap has something to resample.
func (e *Estimator) EnsureBudget(pivots int) {
	if pivots >= e.n || int64(pivots)+int64(e.presolved) >= e.totalRoots {
		e.runExact()
		return
	}
	target := e.presolved + pivots
	for e.pivots < target && len(e.open) > 0 {
		rem := target - e.pivots
		b := DefaultBatchSize
		if len(e.batches) == 0 && rem <= b && rem >= 2 {
			b = (rem + 1) / 2
		}
		if b > rem {
			b = rem
		}
		if e.Refine(b) == 0 {
			break
		}
	}
	// The presolve pass may have exhausted the budget on its own, but an
	// estimate must never silently drop the open sub-graphs (that would be
	// biased, not just noisy), and one batch cannot bootstrap an error bar.
	// Top up to two minimal batches: Refine gives every open sub-graph at
	// least one pivot regardless of the budget passed.
	for len(e.batches) < 2 && len(e.open) > 0 {
		if e.Refine(len(e.open)) == 0 {
			break
		}
	}
}

// EnsureEps refines until the bootstrap error estimate drops to eps (on the
// normalized BC scale) or every sub-graph saturates. eps <= 0 demands
// exactness.
func (e *Estimator) EnsureEps(eps float64) {
	if eps <= 0 {
		e.runExact()
		return
	}
	for len(e.open) > 0 {
		if len(e.batches) >= 2 && e.ErrorEstimate() <= eps {
			return
		}
		if e.Refine(DefaultBatchSize) == 0 {
			break
		}
	}
}

// Estimate assembles the current scores: exact sums for finished sub-graphs,
// Horvitz–Thompson scaled sums (|R_i|/k_i) for sampled ones, folded in
// sub-graph index order so results are deterministic for any worker count.
func (e *Estimator) Estimate() []float64 {
	out := make([]float64, e.n)
	for _, s := range e.subs {
		switch {
		case s.done:
			for l, v := range s.sg.Verts {
				if c := s.sum[l]; c != 0 {
					out[v] += c
				}
			}
		case s.next > 0:
			scale := float64(s.rootCount()) / float64(s.next)
			for l, v := range s.sg.Verts {
				if c := s.sum[l]; c != 0 {
					out[v] += scale * c
				}
			}
		}
	}
	return out
}

// Exact reports whether every sub-graph has been solved in full.
func (e *Estimator) Exact() bool { return len(e.open) == 0 }

// Pivots returns the number of root sweeps run so far.
func (e *Estimator) Pivots() int { return e.pivots }

// ExactRoots returns the sweep count of the exact engine (Σ|R_i|).
func (e *Estimator) ExactRoots() int64 { return e.totalRoots }

// Release returns the estimator's pooled sweep workspaces to the shared
// core arena. The estimator stays usable — ensureSweeps re-acquires scratch
// on the next Refine/EnsureBudget call — so long-lived holders (the bcd
// estimator cache) call Release when discarding or idling an estimator to
// keep the pool's in-use gauge honest.
func (e *Estimator) Release() {
	for _, sw := range e.sweeps {
		sw.Release()
	}
	e.sweeps = e.sweeps[:0]
}

// Result snapshots the estimator into a finished Result.
func (e *Estimator) Result() Result {
	return Result{
		BC:          e.Estimate(),
		Pivots:      e.pivots,
		ExactRoots:  e.totalRoots,
		Batches:     len(e.batches),
		Exact:       e.Exact(),
		ErrEstimate: e.ErrorEstimate(),
	}
}
