package core

import (
	"slices"
	"sort"
	"time"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/ws"
)

// Every sweep is scheduled the same way: one cost-ordered queue of
// (sub-graph, roots) work units, drained by drainUnits — the only code that
// builds an engine and runs roots through it. ComputeDecomposed's units come
// from buildUnits, Incremental's are the sub-graphs an epoch has to re-sweep,
// and the approx sampler's are its pivot groups (SweepRoots). Each unit's
// cost is estimated as |roots|·(|V_i|+|E_i|) — the Brandes work bound for its
// slice of the sub-graph — and the queue is drained largest-first by a fixed
// worker pool (par.ForWorker with grain 1: atomic-counter claiming, the
// work-stealing analogue). Large sub-graphs are split into several root ranges
// so they fan out across workers, and because everything lives in one queue
// there is no barrier holding small sub-graphs back while the top sub-graph
// finishes.
//
// Determinism: every unit accumulates into a private slice of its own, which
// one engine fills root after root, and the caller adds those slices up in
// the order of the unit list — ComputeDecomposed in (sub-graph, root range)
// order, Incremental in sub-graph order. The result is therefore a
// deterministic function of the unit list whatever the worker count and the
// worker interleaving. Only articulation points are shared between
// sub-graphs, so the extra memory is one float64 slice per unit, Σ|V_i|
// overall.

// unitsPerWorkerTarget controls chunking: a sub-graph is split so that no
// unit exceeds ~1/(unitsPerWorkerTarget·p) of the total estimated work,
// giving the pool a few claimable pieces per worker without shredding the
// queue into scheduling overhead. The pieces of a split sub-graph come in a
// multiple of p, so that equal pieces drain evenly: a top sub-graph cut in 7
// leaves two workers 4 : 3 (buildUnits).
const unitsPerWorkerTarget = 4

type workUnit struct {
	sg    *decompose.Subgraph
	roots []int32 // swept in order by one engine
	top   bool    // unit of the top sub-graph (Breakdown.TopBC)
	cost  int64
	// local is what the roots contribute, indexed by sg's local ids; the
	// drain leaves it in a fresh slice that nothing else refers to.
	local []float64
	dur   time.Duration
}

// newUnit is a unit of roots of sg, its cost under the model of the kernel
// the rule gives it (forced is RootEngine == EngineMSBFS).
func newUnit(sg *decompose.Subgraph, roots []int32, weighted, forced bool) workUnit {
	return workUnit{sg: sg, roots: roots,
		cost: unitCost(sg, len(roots), useLanes(sg, len(roots), weighted, forced))}
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

// buildUnits constructs ComputeDecomposed's unit list in canonical
// (sub-graph, root-range) order. chunking splits costly sub-graphs into root
// ranges sized so the queue holds a few units per worker; otherwise every
// unit is a whole sub-graph. A split sub-graph's chunk count is rounded up to
// a multiple of p and capped at its lane words, and its whole lane words are
// spread over the chunks so that they differ by at most one word (the last
// one may be short: it ends at the last root).
//
// Unit BOUNDARIES are kernel-independent: the chunk count always comes from
// the scalar cost model, and chunks are whole lane words whatever kernel will
// run them. Boundaries determine the floating-point association of each
// sub-graph's per-unit sums, so keeping them fixed is what makes the kernel
// rule bit-invisible (and lets the lane kernel run whole lane words per unit
// with no boundary ever splitting a batch). Unit cost, by contrast, uses the
// model of the kernel the rule gives the unit (newUnit); it only orders the
// drain queue, which the in-order flush makes bit-neutral.
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
			u := newUnit(sg, sg.Roots[lo:hi], weighted, forced)
			u.top = i == d.TopIndex
			units = append(units, u)
			lo = hi
		}
	}
	return units
}

// drainUnits sweeps every unit with p workers, one engine each, and leaves
// each unit's contribution in its local slice (see the comment at the top of
// this file); it returns the total traversed-arc count, and whether a sweep
// overflowed σ (the local slices are then meaningless).
func drainUnits(units []workUnit, p int, g *graph.Graph, opt Options) (int64, bool) {
	// Drain order: descending cost, ties broken by position in the unit
	// list, so the queue itself is deterministic.
	queue := make([]int, len(units))
	for i := range queue {
		queue[i] = i
	}
	sort.Slice(queue, func(a, b int) bool {
		ca, cb := units[queue[a]].cost, units[queue[b]].cost
		if ca != cb {
			return ca > cb
		}
		return queue[a] < queue[b]
	})
	weighted, directed := g.Weighted(), g.Directed()
	engines := make([]*engine, p)
	par.ForWorker(len(queue), p, 1, func(w, qi int) {
		u := &units[queue[qi]]
		e := engines[w]
		if e == nil {
			e = newEngine(weighted, opt)
			engines[w] = e
		}
		e.ensure(u.sg)
		t0 := time.Now()
		e.runRoots(u.sg, u.roots, directed)
		u.dur = time.Since(t0)
		loc := e.ws.BC[:u.sg.NumVerts()]
		u.local = slices.Clone(loc)
		clear(loc)
	})
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

// RootGroup is one request to SweepRoots: roots of a sub-graph, swept in order.
type RootGroup struct {
	Subgraph *decompose.Subgraph
	Roots    []int32
}

// SweepRoots sweeps each group's roots of its sub-graph — a sub-graph of a
// decomposition of g — through the drain every exact computation uses, with
// up to workers workers (<= 0: GOMAXPROCS), and returns each group's
// contribution under its sub-graph's local ids, or
// graph.ErrPathCountOverflow. A group runs what the exact engine runs for the
// same roots, bit for bit, however the groups are spread over the workers: a
// group holding a sub-graph's whole root list is that sub-graph's one-worker
// contribution to Compute. internal/approx's pivot sampler is the caller.
func SweepRoots(g *graph.Graph, groups []RootGroup, workers int) ([][]float64, error) {
	units := make([]workUnit, len(groups))
	for i, gr := range groups {
		units[i] = newUnit(gr.Subgraph, gr.Roots, g.Weighted(), false)
	}
	if _, overflow := drainUnits(units, par.Workers(workers), g, Options{}); overflow {
		return nil, graph.ErrPathCountOverflow
	}
	out := make([][]float64, len(units))
	for i := range units {
		out[i] = units[i].local
	}
	return out, nil
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
		roots += int64(len(units[i].roots))
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
