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

// Every sweep takes one path, sweepGroups: the requested (sub-graph, roots)
// groups — all of them for ComputeDecomposed, the sub-graphs an epoch re-sweeps
// for Incremental, the approx sampler's pivot groups (SweepRoots) — are cut
// into work units (buildUnits) that drainUnits, the only code that builds an
// engine, drains largest cost first with a fixed worker pool (par.ForWorker,
// grain 1). Large groups fan out across workers as root ranges, and one queue
// holds every unit, so no barrier keeps small sub-graphs waiting on the top.
//
// Determinism: the cut depends on the decomposition, the root budget and the
// group alone, never on the worker count. Each unit fills a private slice; a
// group's contribution is its units' slices summed in unit order, and callers
// add contributions in sub-graph order. So Compute at any worker count, an
// epoch and a whole-root-list SweepRoots group give the same bits, for one
// float64 slice per unit of extra memory.

// splitShares sets the cut: no unit is meant to exceed about 1/splitShares of
// the decomposition's total estimated work. A cut into 32 shares was no faster
// at p=2 and slower at p=1 (EXPERIMENTS.md "Sized and rejected" 51).
const splitShares = 8

type workUnit struct {
	sg    *decompose.Subgraph
	roots []int32 // swept in order by one engine
	group int     // index of the group the roots belong to
	cost  int64
	// local is what the roots contribute, indexed by sg's swept local ids
	// [0, len(sg.Roots)) — a folded vertex's contribution is 0 — and left by
	// the drain in a fresh slice that nothing else refers to.
	local []float64
	dur   time.Duration
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

// splitTarget is the unit size the split aims at: the decomposition's total
// scalar cost under the root budget (Options.RootBudget, <= 0 none) over
// splitShares, or 0 when nothing is worth splitting.
func splitTarget(d *decompose.Decomposition, budget int) int64 {
	totalRoots := d.TotalRoots()
	var total int64
	for _, sg := range d.Subgraphs {
		total += unitCost(sg, rootPrefix(len(sg.Roots), totalRoots, budget), false)
	}
	return total / splitShares
}

// chunkCount is how many units nr roots of sg are cut into under a split
// target (0: none): the scalar cost over the target, rounded up to even so that
// two workers drain equal pieces (7 would leave them 4 : 3), and capped at the
// roots' lane words.
func chunkCount(sg *decompose.Subgraph, nr int, target int64) int {
	if target == 0 {
		return 1
	}
	c := int(unitCost(sg, nr, false) / target)
	if c > 1 {
		c += c & 1
	}
	return max(1, min(c, (nr+ws.LaneWidth-1)/ws.LaneWidth))
}

// buildUnits cuts groups into work units in (group, root-range) order:
// chunkCount ranges per group under SchedulerDynamic, one under
// SchedulerStatic, whole lane words spread so that ranges differ by at most
// one word (the last may be short); a group with no roots is one empty unit,
// so it still has a contribution. The boundaries fix each group's
// floating-point association, so they come from the scalar cost model and
// whole lane words whatever kernel runs a unit: the worker count and the
// kernel rule are bit-invisible, and no boundary splits a lane batch. A unit's
// cost uses its kernel's model; it only orders the queue.
func buildUnits(d *decompose.Decomposition, groups []RootGroup, opt Options) []workUnit {
	var target int64
	if opt.Scheduler == SchedulerDynamic {
		target = splitTarget(d, opt.RootBudget)
	}
	weighted, forced := d.G.Weighted(), opt.RootEngine == EngineMSBFS
	var units []workUnit
	for gi, gr := range groups {
		sg, nr := gr.Subgraph, len(gr.Roots)
		n := chunkCount(sg, nr, target)
		words := (nr + ws.LaneWidth - 1) / ws.LaneWidth
		per, extra := words/n, words%n
		for c, lo := 0, 0; c < n; c++ {
			w := per
			if c < extra {
				w++
			}
			hi := min(lo+w*ws.LaneWidth, nr)
			units = append(units, workUnit{sg: sg, roots: gr.Roots[lo:hi], group: gi,
				cost: unitCost(sg, hi-lo, useLanes(sg, hi-lo, weighted, forced))})
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
		loc := e.ws.BC[:len(u.sg.Roots)]
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

// sweepGroups cuts groups of d's sub-graphs into units, drains them with p
// workers and returns each group's contribution under its sub-graph's swept
// local ids, its units' slices summed in unit order, or
// graph.ErrPathCountOverflow.
// It fills opt.Breakdown's BC phase when that is set.
func sweepGroups(d *decompose.Decomposition, groups []RootGroup, p int, opt Options) ([][]float64, error) {
	start := time.Now()
	units := buildUnits(d, groups, opt)
	traversed, overflow := drainUnits(units, p, d.G, opt)
	if overflow {
		return nil, graph.ErrPathCountOverflow
	}
	contribs := make([][]float64, len(groups))
	for _, u := range units {
		sum := contribs[u.group]
		if sum == nil {
			contribs[u.group] = u.local
			continue
		}
		for l, x := range u.local {
			sum[l] += x
		}
	}
	if opt.Breakdown != nil {
		fillBreakdown(opt.Breakdown, d, units, time.Since(start), traversed)
	}
	return contribs, nil
}

// SweepRoots sweeps each group's roots of its sub-graph — a sub-graph of d —
// as every exact computation does, with up to workers workers (<= 0:
// GOMAXPROCS), and returns each group's contribution, one score per swept
// local id [0, len(Roots)) of its sub-graph (a folded vertex's would be 0),
// or graph.ErrPathCountOverflow. A group holding a sub-graph's
// whole root list gets that sub-graph's contribution to Compute, bit for bit.
// internal/approx's pivot sampler is the caller.
func SweepRoots(d *decompose.Decomposition, groups []RootGroup, workers int) ([][]float64, error) {
	return sweepGroups(d, groups, par.Workers(workers), Options{})
}

// flushLocal adds a sub-graph's local BC scores, one per swept vertex, into
// the global array (single-threaded caller).
func flushLocal(bc []float64, sg *decompose.Subgraph, local []float64) {
	for l, x := range local {
		bc[sg.Verts[l]] += x
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
		if units[i].sg.ID == d.TopIndex {
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
