package core

import (
	"sort"
	"time"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/ws"
)

// Every sweep is scheduled the same way: one cost-ordered queue of
// (sub-graph, root-range) work units. Each unit's cost is estimated as
// |roots|·(|V_i|+|E_i|) — the Brandes work bound for its slice of the
// sub-graph — and the queue is drained largest-first by a fixed worker pool
// (par.ForWorker with grain 1: atomic-counter claiming, the work-stealing
// analogue). Large sub-graphs are split into several root ranges so they fan
// out across workers, and because everything lives in one queue there is no
// barrier holding small sub-graphs back while the top sub-graph finishes.
//
// Determinism: at p == 1 units are whole sub-graphs processed in index order
// with direct flushes (what RootSweep/approx replay bit-for-bit). At p > 1
// each unit accumulates into a private partial array and the partials are
// merged sequentially in (sub-graph index, root-range) order after the
// drain, so the result is a deterministic function of (graph, options)
// regardless of worker interleaving. Only articulation points are shared
// between sub-graphs, so the extra memory is one float64 slice per unit,
// Σ|V_i| overall.

// unitsPerWorkerTarget controls chunking: a sub-graph is split so that no
// unit exceeds ~1/(unitsPerWorkerTarget·p) of the total estimated work,
// giving the pool a few claimable pieces per worker without shredding the
// queue into scheduling overhead. The pieces of a split sub-graph come in a
// multiple of p, so that equal pieces drain evenly: a top sub-graph cut in 7
// leaves two workers 4 : 3 (buildUnits).
const unitsPerWorkerTarget = 4

type workUnit struct {
	sg      *decompose.Subgraph
	sgIdx   int
	lo, hi  int  // root range [lo, hi) into sg.Roots
	top     bool // unit of the top sub-graph (Breakdown.TopBC)
	cost    int64
	partial []float64
	dur     time.Duration
}

// unitCost estimates the sweep work for nr roots of sg, |V|+|E| being the
// size of the swept graph (the γ-folded vertices and their arcs are in no
// sweep). The scalar kernel pays one traversal per root, |roots|·(|V|+|E|);
// the lane kernel shares each traversal across a lane word,
// ⌈|roots|/LaneWidth⌉·(|V|+|E|). lanes is useLanes' answer for the unit.
func unitCost(sg *decompose.Subgraph, nr int, lanes bool) int64 {
	work := int64(len(sg.Roots)) + sg.NumArcs()
	if lanes {
		return int64((nr+ws.LaneWidth-1)/ws.LaneWidth) * work
	}
	return int64(nr) * work
}

// buildUnits constructs the work-unit list in canonical (sgIdx, root-range)
// order. chunking splits costly sub-graphs into root ranges sized so the
// queue holds a few units per worker; otherwise every unit is a whole
// sub-graph. A split sub-graph's chunk count is rounded up to a multiple of p
// and capped at its lane words, and its whole lane words are spread over the
// chunks so that they differ by at most one word (the last one may be short:
// it ends at the last root).
//
// Unit BOUNDARIES are kernel-independent: the chunk count always comes from
// the scalar cost model, and chunks are whole lane words whatever kernel will
// run them. Boundaries determine the floating-point association of each
// sub-graph's per-unit partial sums, so keeping them
// fixed is what makes the kernel rule bit-invisible (and lets the lane kernel
// run whole lane words per unit with no boundary ever splitting a batch). Unit
// cost, by contrast, uses the model of the kernel the rule gives the unit
// (useLanes; forced is RootEngine == EngineMSBFS); it only orders the drain
// queue, which the canonical merge makes bit-neutral.
//
// budget is Options.RootBudget: each sub-graph's root list is trimmed to its
// proportional prefix BEFORE chunking, so the unit boundaries of a budgeted
// run are again a pure function of (decomposition, options) — the
// determinism argument above carries over unchanged.
func buildUnits(d *decompose.Decomposition, p int, chunking, forced bool, budget int) []workUnit {
	weighted := d.G.Weighted()
	totalRoots := totalRootCount(d)
	var total int64
	costs := make([]int64, len(d.Subgraphs))
	for i, sg := range d.Subgraphs {
		costs[i] = unitCost(sg, rootPrefix(len(sg.Roots), totalRoots, budget), false)
		total += costs[i]
	}
	var units []workUnit
	for i, sg := range d.Subgraphs {
		nr := rootPrefix(len(sg.Roots), totalRoots, budget)
		if nr == 0 {
			continue
		}
		chunks := 1
		if chunking {
			if target := total / int64(unitsPerWorkerTarget*p); target > 0 {
				chunks = int(costs[i] / target)
			}
			if chunks > 1 {
				chunks = (chunks + p - 1) / p * p
			}
		}
		words := (nr + ws.LaneWidth - 1) / ws.LaneWidth
		chunks = max(1, min(chunks, words))
		per, extra := words/chunks, words%chunks
		for c, lo := 0, 0; c < chunks; c++ {
			w := per
			if c < extra {
				w++
			}
			hi := min(lo+w*ws.LaneWidth, nr)
			units = append(units, workUnit{
				sg: sg, sgIdx: i, lo: lo, hi: hi, top: i == d.TopIndex,
				cost: unitCost(sg, hi-lo, useLanes(sg, hi-lo, weighted, forced)),
			})
			lo = hi
		}
	}
	return units
}

// drainUnits runs every unit and merges results into bc deterministically
// (see the comment at the top of this file) with one engine per worker;
// returns the total traversed-arc count, and whether a sweep overflowed σ
// (bc is then meaningless).
func drainUnits(units []workUnit, p int, g *graph.Graph, opt Options, bc []float64) (int64, bool) {
	weighted, directed := g.Weighted(), g.Directed()
	// runUnit sweeps u's roots and hands back the engine's accumulation
	// buffer for the caller to flush or copy, then zero.
	runUnit := func(e *engine, u *workUnit) []float64 {
		e.ensure(u.sg)
		t0 := time.Now()
		e.runRoots(u.sg, u.sg.Roots[u.lo:u.hi], directed)
		u.dur = time.Since(t0)
		return e.ws.BC[:u.sg.NumVerts()]
	}
	if p <= 1 || len(units) < 2 {
		e := newEngine(weighted, opt)
		for i := range units {
			u := &units[i]
			loc := runUnit(e, u)
			flushLocal(bc, u.sg, loc)
			for l := range loc {
				loc[l] = 0
			}
		}
		e.release()
		return e.traversed, e.overflow
	}
	// Drain order: descending cost, ties broken by canonical order so the
	// queue itself is deterministic.
	queue := make([]int, len(units))
	for i := range queue {
		queue[i] = i
	}
	sort.Slice(queue, func(a, b int) bool {
		ua, ub := &units[queue[a]], &units[queue[b]]
		if ua.cost != ub.cost {
			return ua.cost > ub.cost
		}
		if ua.sgIdx != ub.sgIdx {
			return ua.sgIdx < ub.sgIdx
		}
		return ua.lo < ub.lo
	})
	engines := make([]*engine, p)
	par.ForWorker(len(queue), p, 1, func(w, qi int) {
		u := &units[queue[qi]]
		e := engines[w]
		if e == nil {
			e = newEngine(weighted, opt)
			engines[w] = e
		}
		loc := runUnit(e, u)
		u.partial = make([]float64, len(loc))
		copy(u.partial, loc)
		for l := range loc {
			loc[l] = 0
		}
	})
	// Deterministic merge: canonical (sgIdx, lo) order.
	for i := range units {
		flushLocal(bc, units[i].sg, units[i].partial)
		units[i].partial = nil
	}
	var traversed int64
	overflow := false
	for _, e := range engines {
		if e != nil {
			traversed += e.traversed
			overflow = overflow || e.overflow
			e.release()
		}
	}
	return traversed, overflow
}

// flushLocal adds a sub-graph's local BC scores into the global array
// (single-threaded caller).
func flushLocal(bc []float64, sg *decompose.Subgraph, local []float64) {
	for l, v := range sg.Verts {
		bc[v] += local[l]
	}
}

// fillBreakdown populates bd from a finished drain: TopBC is the time of the
// top sub-graph's units (Figure 8's definition), RestBC everything else.
// Per-unit durations overlap at p > 1, so the measured wall time is
// attributed proportionally to the top/rest duration shares; TopBC + RestBC
// == wall exactly, keeping the Breakdown sum invariant the tests pin.
func fillBreakdown(bd *Breakdown, d *decompose.Decomposition, units []workUnit, wall time.Duration, traversed int64) {
	var topDur, allDur time.Duration
	var roots int64
	for i := range units {
		allDur += units[i].dur
		if units[i].top {
			topDur += units[i].dur
		}
		roots += int64(units[i].hi - units[i].lo)
	}
	var top time.Duration
	if allDur > 0 {
		top = time.Duration(float64(wall) * float64(topDur) / float64(allDur))
	}
	bd.TopBC = top
	bd.RestBC = wall - top
	bd.Total = bd.Partition + bd.AlphaBeta + wall
	bd.TraversedArcs = traversed
	bd.Roots = roots
	bd.Subgraphs = len(d.Subgraphs)
	bd.Articulations = d.NumArticulation
}
