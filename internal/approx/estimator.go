package approx

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/decompose"
)

// subSampler is the per-sub-graph sampling state.
type subSampler struct {
	sg *decompose.Subgraph
	// perm is a seeded shuffle of sg.Roots, consumed front to back; the
	// prefix perm[:next] is always a uniform without-replacement sample of
	// the root set. Presolved sub-graphs never allocate it.
	perm []int32
	next int
	// sum accumulates ΣC over consumed roots, one entry per swept local id
	// (core.SweepRoots); once done, it is the sub-graph's exact contribution.
	sum  []float64
	done bool // every root consumed: contribution is exact
}

func (s *subSampler) rootCount() int { return len(s.sg.Roots) }

// estimator is a refinable per-sub-graph pivot sampler behind Estimate. It is
// not safe for concurrent use.
type estimator struct {
	d       *decompose.Decomposition
	n       int     // vertices in the whole graph
	norm    float64 // 1/((n-1)(n-2)) — normalized-BC divisor
	seed    int64
	workers int

	subs       []*subSampler // index-aligned with d.Subgraphs
	open       []int         // indices of sub-graphs still being sampled
	totalRoots int64
	pivots     int
	presolved  int // pivots spent by the construction-time presolve pass

	// batches holds per-batch unbiased estimate vectors of the still-open
	// part of BC (global ids), the bootstrap's resampling units.
	batches [][]float64

	errCached float64
	errValid  bool
}

// newEstimator prepares sampling state over d (seeded root shuffles) and
// presolves every sub-graph with at most presolveRoots roots exactly. No
// stochastic sampling happens until refine/ensureBudget/ensureEps. A presolve
// sweep whose path counts overflow float64 is graph.ErrPathCountOverflow.
func newEstimator(d *decompose.Decomposition, opt Options) (*estimator, error) {
	if d.G.Weighted() {
		return nil, fmt.Errorf("approx: weighted graphs are not supported")
	}
	n := d.G.NumVertices()
	e := &estimator{
		d:       d,
		n:       n,
		norm:    1,
		seed:    opt.Seed,
		workers: opt.Workers,
	}
	if n > 2 {
		e.norm = 1 / (float64(n-1) * float64(n-2))
	}
	if err := e.rngShuffle(opt.Seed); err != nil {
		return nil, err
	}
	e.presolved = e.pivots
	return e, nil
}

// rngShuffle builds the per-sub-graph samplers with seeded permutations and
// runs the presolve pass. Split out of newEstimator only for clarity.
func (e *estimator) rngShuffle(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var presolve []int
	for i, sg := range e.d.Subgraphs {
		s := &subSampler{sg: sg, sum: make([]float64, len(sg.Roots))}
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
	return e.runExactSubs(presolve)
}

// runExactSubs finishes the listed sub-graphs exactly. Sub-graphs that were
// never sampled replay sg.Roots in the exact engine's order, which is what
// makes untouched-estimator full-budget runs bit-identical to core.Compute;
// partially sampled ones finish their permutation tail (exact values, root
// order differs, so last-bit rounding may differ).
func (e *estimator) runExactSubs(idxs []int) error {
	if len(idxs) == 0 {
		return nil
	}
	groups := make([]core.RootGroup, len(idxs))
	for k, si := range idxs {
		s := e.subs[si]
		groups[k] = core.RootGroup{Subgraph: s.sg, Roots: s.sg.Roots}
		if s.next > 0 {
			groups[k].Roots = s.perm[s.next:]
		}
	}
	contribs, err := core.SweepRoots(e.d, groups, e.workers)
	if err != nil {
		return err
	}
	for k, si := range idxs {
		s := e.subs[si]
		for l, c := range contribs[k] {
			if c != 0 {
				s.sum[l] += c
			}
		}
		e.pivots += len(groups[k].Roots)
		s.next = s.rootCount()
		s.done = true
	}
	e.dropDone()
	e.errValid = false
	return nil
}

// dropDone removes finished sub-graphs from the open list.
func (e *estimator) dropDone() {
	open := e.open[:0]
	for _, si := range e.open {
		if !e.subs[si].done {
			open = append(open, si)
		}
	}
	e.open = open
}

// refine draws one stochastic batch of roughly `budget` pivots, allocated
// across the open sub-graphs proportionally to sub-graph size with at least
// one pivot each (every open sub-graph must appear in every batch for the
// batch vector to be an unbiased estimate of the open part). Returns the
// number of pivots actually run; 0 means the estimate is already exact.
func (e *estimator) refine(budget int) (int, error) {
	if len(e.open) == 0 || budget <= 0 {
		return 0, nil
	}
	e.errValid = false

	var totalN int64
	for _, si := range e.open {
		totalN += int64(e.subs[si].sg.NumVerts())
	}
	groups := make([]core.RootGroup, len(e.open))
	for k, si := range e.open {
		s := e.subs[si]
		a := int(int64(budget) * int64(s.sg.NumVerts()) / totalN)
		if a < 1 {
			a = 1
		}
		if rem := s.rootCount() - s.next; a > rem {
			a = rem
		}
		groups[k] = core.RootGroup{Subgraph: s.sg, Roots: s.perm[s.next : s.next+a]}
	}
	contribs, err := core.SweepRoots(e.d, groups, e.workers)
	if err != nil {
		return 0, err
	}

	// Serial fold in sub-graph index order: deterministic for any worker
	// count, as each group's contribution is (core.SweepRoots).
	bvec := make([]float64, e.n)
	ran := 0
	for k, si := range e.open {
		s := e.subs[si]
		a := len(groups[k].Roots)
		scale := float64(s.rootCount()) / float64(a)
		for l, c := range contribs[k] {
			if c != 0 {
				s.sum[l] += c
				bvec[s.sg.Verts[l]] += scale * c
			}
		}
		s.next += a
		s.done = s.next == s.rootCount()
		ran += a
	}
	e.pivots += ran
	e.batches = append(e.batches, bvec)
	if len(e.batches) >= maxStoredBatches {
		e.collapseBatches()
	}
	e.dropDone()
	return ran, nil
}

// collapseBatches averages adjacent batch-vector pairs, halving the stored
// count. Pair averages are themselves unbiased batch estimates, and the mean
// over the collapsed set equals the mean over the originals, so the
// bootstrap's variance-of-the-mean target is preserved.
func (e *estimator) collapseBatches() {
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
// and errorEstimate() is 0.
func (e *estimator) runExact() error {
	if len(e.open) == 0 {
		return nil
	}
	if err := e.runExactSubs(append([]int(nil), e.open...)); err != nil {
		return err
	}
	e.batches = nil
	return nil
}

// ensureBudget refines until at least `pivots` stochastic root sweeps have
// run beyond the construction-time presolve pass. Presolve sweeps are not
// charged against the budget: they cover the many tiny sub-graphs whose
// sweeps are near-free, and charging them would starve the large sub-graphs
// that dominate both cost and variance of exactly the sweeps the caller is
// paying for. Budgets covering every root (>= the vertex count or the total
// root count) switch to the exact schedule. A fresh estimator splits a small
// budget into two batches so the bootstrap has something to resample.
func (e *estimator) ensureBudget(pivots int) error {
	if pivots >= e.n || int64(pivots)+int64(e.presolved) >= e.totalRoots {
		return e.runExact()
	}
	target := e.presolved + pivots
	for e.pivots < target && len(e.open) > 0 {
		rem := target - e.pivots
		b := batchSize
		if len(e.batches) == 0 && rem <= b && rem >= 2 {
			b = (rem + 1) / 2
		}
		if b > rem {
			b = rem
		}
		ran, err := e.refine(b)
		if err != nil {
			return err
		}
		if ran == 0 {
			break
		}
	}
	// The presolve pass may have exhausted the budget on its own, but an
	// estimate must never silently drop the open sub-graphs (that would be
	// biased, not just noisy), and one batch cannot bootstrap an error bar.
	// Top up to two minimal batches: refine gives every open sub-graph at
	// least one pivot regardless of the budget passed.
	for len(e.batches) < 2 && len(e.open) > 0 {
		if ran, err := e.refine(len(e.open)); ran == 0 || err != nil {
			return err
		}
	}
	return nil
}

// ensureEps refines until the bootstrap error estimate drops to eps > 0 (on
// the normalized BC scale) or every sub-graph saturates.
func (e *estimator) ensureEps(eps float64) error {
	for len(e.open) > 0 {
		if len(e.batches) >= 2 && e.errorEstimate() <= eps {
			return nil
		}
		if ran, err := e.refine(batchSize); ran == 0 || err != nil {
			return err
		}
	}
	return nil
}

// estimate assembles the current scores: exact sums for finished sub-graphs,
// Horvitz–Thompson scaled sums (|R_i|/k_i) for sampled ones, folded in
// sub-graph index order so results are deterministic for any worker count.
func (e *estimator) estimate() []float64 {
	out := make([]float64, e.n)
	for _, s := range e.subs {
		switch {
		case s.done:
			for l, c := range s.sum {
				if c != 0 {
					out[s.sg.Verts[l]] += c
				}
			}
		case s.next > 0:
			scale := float64(s.rootCount()) / float64(s.next)
			for l, c := range s.sum {
				if c != 0 {
					out[s.sg.Verts[l]] += scale * c
				}
			}
		}
	}
	return out
}

// exact reports whether every sub-graph has been solved in full.
func (e *estimator) exact() bool { return len(e.open) == 0 }

// result snapshots the estimator into a finished Result.
func (e *estimator) result() Result {
	return Result{
		BC:          e.estimate(),
		Pivots:      e.pivots,
		ExactRoots:  e.totalRoots,
		Batches:     len(e.batches),
		Exact:       e.exact(),
		ErrEstimate: e.errorEstimate(),
	}
}
