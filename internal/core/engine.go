package core

import (
	"fmt"

	"repro/internal/decompose"
	"repro/internal/msbfs"
	"repro/internal/ws"
)

// RootEngine overrides the kernel rule (useLanes). Callers have nothing to
// choose: the zero value is the rule, and the two kernels it picks between are
// bit-identical (internal/msbfs's package comment: the lane kernel replays the
// scalar one operand for operand where path counts are exact, and hands a
// batch back to it where they are not), so no score can tell which one ran.
type RootEngine int

// EngineMSBFS puts every unit the bit-parallel kernel can run through it,
// whatever its lane state weighs: bench/child.go's msbfs probe measures the
// kernel that way, and this value leaves with the probe (ROADMAP 5a). The
// kernel is BFS-based, so requesting it for a weighted graph is an error.
const EngineMSBFS RootEngine = 1

// validateEngine rejects engine requests no kernel can honour.
func validateEngine(weighted bool, re RootEngine) error {
	switch {
	case re == 0:
	case re != EngineMSBFS:
		return fmt.Errorf("core: unknown root engine %d", re)
	case weighted:
		return fmt.Errorf("core: root engine msbfs is BFS-based and cannot sweep a weighted graph")
	}
	return nil
}

// The kernel rule. An unweighted (sub-graph, root-range) unit runs through the
// bit-parallel kernel (internal/msbfs), a lane word of roots per traversal,
// when it has at least msbfsMinLanes roots over a swept graph of at least
// msbfsMinVerts vertices whose lane state — ws.LaneBytesPerVert, 64 lanes ×
// 40 B of σ, δ and BC, per swept vertex (ws.GrowLanes) — fits laneBudget; every
// other unit runs one root at a time through bfsRoot. Which one ran is
// unobservable in the output, so the bounds are tuned purely for speed, and all
// three are vars only so that tests can move them (budget 0 = scalar
// everywhere; ci.sh greps that nothing else writes them).
//
// laneBudget is 2 MiB, 819 swept vertices. The lane kernel shares one CSR
// stream among 64 roots but strides every σ/δ access over 64 slots, so what
// decides is whether that state stays in cache (Quader, PAPERS.md: BC kernels
// are bound by memory layout). Warm p=1 ladder of whole top-sub-graph sweeps,
// scalar ÷ lanes, best of 7 (EXPERIMENTS.md "Kernel by work unit"):
//
//	lattices, 140–564 swept vertices (0.3–1.4 MB)       0.95–1.13×
//	  1,139 (2.8 MB) / 2,279 (5.6 MB) / 5,726 (14 MB)    0.97× / 0.77× / 0.61×
//	undirected community graphs, 69–432 (≤ 1.1 MB)      1.3–2.6×
//	  864 (2.1 MB) / 1,731 (4.2 MB) / 3,462 (8.5 MB)     1.66× / 1.02× / 0.95×
//	directed community graphs, 273–546 (≤ 1.3 MB)       1.43–1.61×
//	R-MAT scale 8–10, 178–665 (≤ 1.6 MB)                1.6–3.2×
//	  scale 11 (3.0 MB) / 12 (5.7 MB)                    1.49× / 1.28×
//
// Under the budget lanes lose at most 5 % (on a 0.8 ms sweep) and usually win
// 1.3–3×; above it the sign depends on BFS depth — the R-MATs and community
// graphs are 4–5 levels deep and every level carries most lanes, a lattice is
// 50–110 levels deep, touches a few lanes of a few vertices per level and pays
// the stride for nothing — and a worker's lane memory would no longer be
// bounded. The two lower bounds are the per-batch overhead's break-even,
// measured on the power-law stand-ins (best-of-30 single-thread sweeps):
// minVerts 128→64 doubled the wiki-talk win (its many 64–128-vertex sub-graphs
// batch profitably), 32 and below regressed the fragmented email-euall
// stand-in; minLanes was flat across 4/8/16.
var (
	laneBudget    = 2 << 20
	msbfsMinLanes = 8
	msbfsMinVerts = 64
)

// useLanes is the kernel rule for nr roots of sg; forced (EngineMSBFS) lifts
// the budget, nothing else.
func useLanes(sg *decompose.Subgraph, nr int, weighted, forced bool) bool {
	return !weighted && sweepsLanes(len(sg.Roots), nr, forced)
}

// sweepsLanes is the rule on an unweighted unit of nr roots over a swept graph
// of that many vertices. runRoots (through useLanes) and the census read it, so
// the kernel bcstats reports for a sub-graph's whole sweep — the one an edit
// re-runs — is the kernel that runs.
func sweepsLanes(swept, nr int, forced bool) bool {
	if nr < msbfsMinLanes || swept < msbfsMinVerts {
		return false
	}
	return forced || swept*ws.LaneBytesPerVert <= laneBudget
}

// engine is one worker's sweep engine: pooled per-vertex scratch plus the
// three kernels — BFS (bfsRoot), bit-parallel batched BFS (internal/msbfs) and
// Dijkstra (dijkstraRoot). All three accumulate into ws.BC. drainUnits
// (sched.go) is the one driver: per work unit it ensures the sub-graph, runs
// the unit's roots, copies ws.BC out and zeroes it, and it releases the
// engine when the queue is empty. The zero value sweeps unweighted
// sub-graphs under the kernel rule.
type engine struct {
	ws *ws.Sweep
	// traversed is the paper's work metric, Σ out-degree over the vertices
	// each sweep visited, whichever kernel ran. examined is what bfsRoot's
	// forward passes really scanned — frontier out-arcs in top-down levels,
	// in-arcs of the unvisited vertices plus the bitset words in bottom-up
	// levels — and bottomUpLevels how many levels went bottom-up. backScanned
	// is the same for its backward passes — tape slots of the levels that
	// pulled, in-arcs of the levels that pushed — and pushedLevels how many
	// pushed. Tests read the four to pin the direction rule (and, staying zero
	// while traversed moves, to see that a unit took the lane kernel); nothing
	// reports them.
	traversed, examined, bottomUpLevels int64
	backScanned, pushedLevels           int64

	weighted   bool      // Dijkstra kernel; set from the graph, never by callers' options
	forceLanes bool      // RootEngine == EngineMSBFS
	hybrid     bool      // the ensured sub-graph takes direction-optimizing BFS sweeps
	force      direction // tests only; the zero value is the edge-volume rule

	kernel msbfs.Kernel // batched scratch
	// inexact is the sub-graph whose last lane batch came back with a path
	// count past 2⁵³ (msbfs.Kernel.Run), where the kernels' σ sums may round
	// apart and the scalar one is the reference: its roots go one by one.
	inexact *decompose.Subgraph
	pq      wheap // Dijkstra heap
	// overflow: a sweep since it was last cleared met a σ of +Inf
	// (graph.ErrPathCountOverflow). bfsRoot and dijkstraRoot test each σ once,
	// when it is final, and finish their root; runRoots starts no further one,
	// and whoever drains the engine discards the scores and returns the error.
	overflow bool
}

// newEngine builds the engine validateEngine approved for a graph.
func newEngine(weighted bool, opt Options) *engine {
	return &engine{weighted: weighted, forceLanes: opt.RootEngine == EngineMSBFS}
}

// ensure prepares the engine for sweeps over sg: scratch checked out of the
// shared pool on first use and grown to sg's size (the clean-slot invariants
// — dist == -1 everywhere, BC zero, visited clear — are guaranteed by the
// pool and maintained by the kernels' sparse resets), and for BFS sweeps of
// sub-graphs worth the direction-optimizing treatment (sweepsHybrid), the
// in-CSR the bottom-up levels scan (EnsureIn is once-guarded, so concurrent
// workers on one sub-graph are safe). Every other sub-graph sweeps top-down and
// never has a transpose built.
func (e *engine) ensure(sg *decompose.Subgraph) {
	if e.ws == nil {
		e.ws = sweepPool.Get(0)
	}
	n := sg.NumVerts()
	if e.weighted {
		e.ws.GrowWeighted(n)
		return
	}
	e.ws.Grow(n)
	switch e.force {
	case dirAuto:
		e.hybrid = sweepsHybrid(len(sg.Roots), sg.NumArcs())
	case dirBottomUp:
		e.hybrid = len(sg.Roots) >= hybridMinVerts
	default:
		e.hybrid = false
	}
	if e.hybrid {
		sg.EnsureIn()
	}
}

// release returns the scratch to the pool. The caller must have copied ws.BC
// out and zeroed it first; everything else is clean by the sparse-reset
// discipline.
func (e *engine) release() {
	if e.ws != nil {
		sweepPool.Put(e.ws)
		e.ws = nil
	}
}

// runRoots sweeps the given roots of the ensured sub-graph in order,
// accumulating into ws.BC — the one place a kernel is chosen. Every work unit
// comes through here, whoever asked for it (Compute, an Incremental epoch, the
// approx sampler's pivot groups), and takes the rule's kernel for its roots; the kernels share the accumulation buffer and are
// bit-identical. Once a sweep has set e.overflow it starts no further root.
func (e *engine) runRoots(sg *decompose.Subgraph, roots []int32, directed bool) {
	if e.weighted {
		for i := 0; i < len(roots) && !e.overflow; i++ {
			e.dijkstraRoot(sg, roots[i], directed)
		}
		return
	}
	if sg != e.inexact && useLanes(sg, len(roots), false, e.forceLanes) {
		for len(roots) > 0 {
			n := min(ws.LaneWidth, len(roots))
			traversed, exact := e.kernel.Run(sg, roots[:n], directed, e.ws)
			if !exact { // the batch added nothing: it and the rest are bfsRoot's
				e.inexact = sg
				break
			}
			e.traversed += traversed
			roots = roots[n:]
		}
	}
	if len(roots) > 0 { // only bfsRoot keeps a tape: a unit the lanes took whole reserves none
		e.ws.GrowTape(int(sg.NumArcs()), len(sg.Roots))
	}
	for i := 0; i < len(roots) && !e.overflow; i++ {
		e.bfsRoot(sg, roots[i], directed)
	}
}
