// Package core implements APGRE, the paper's contribution: articulation-
// points-guided redundancy elimination for exact betweenness centrality
// (§3, Algorithm 2).
//
// After the graph is decomposed into sub-graphs along articulation points
// (internal/decompose), each sub-graph runs a Brandes-style computation that
// maintains the paper's four dependencies simultaneously:
//
//	δ_i2i — source and target inside the sub-graph (Eq. 3, classic Brandes)
//	δ_i2o — target outside, folded through α of the exit AP (Eq. 4)
//	δ_o2i — source outside, β(s)·δ_i2i when the root is an AP (Eq. 5)
//	δ_o2o — both outside, β(root)·α(exit AP) seeds (Eq. 6)
//
// merged into BC scores with the γ total-redundancy weights (Eq. 7/8,
// Theorem 3). The sweeps walk each sub-graph's swept graph
// (decompose.Subgraph.Out): the γ-folded vertices are out of it, and on
// undirected graphs what each of them added as a target — exactly 1 to its
// neighbour's δ_i2i — comes back as the seed γ(v) (DESIGN.md §1). Parallelism keeps the outer level of the paper's §4 scheme —
// independent sweeps spread over workers, here as one cost-ordered queue of
// (sub-graph, root-range) units (sched.go) — and drops the level-synchronous
// inner level, which never won a measured cell (DESIGN.md §1).
//
// Correctness note (DESIGN.md §1): for undirected graphs the paper's root
// term γ(s)·(δ_i2i(s)+δ_i2o(s)) overcounts each folded leaf's dependency by
// exactly 1 (the leaf is reachable from s and counts itself as a target);
// the undirected path subtracts γ(s) accordingly. The property tests against
// Brandes fail without this correction.
package core

import (
	"fmt"
	"time"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/par"
)

// Scheduler selects how sub-graph work is cut into units of the one
// cost-ordered queue every sweep drains (sched.go).
type Scheduler int

const (
	// SchedulerDynamic is the default: (sub-graph, root-range) units. Large
	// sub-graphs are cut into root ranges so they fan out across workers.
	SchedulerDynamic Scheduler = iota
	// SchedulerStatic keeps every sub-graph whole — one unit each, the
	// paper's coarse outer level: the top sub-graph occupies one worker for
	// its whole sweep.
	SchedulerStatic
)

// Options configures Compute.
type Options struct {
	// Workers bounds goroutine parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Threshold is the decomposition merge threshold (Algorithm 1).
	Threshold int
	// DisableGamma turns off total-redundancy elimination (ablation).
	DisableGamma bool
	// Scheduler selects the work-unit granularity; the zero value is
	// SchedulerDynamic.
	Scheduler Scheduler
	// RootEngine is not a choice callers have: leave it zero and every work
	// unit takes the kernel the rule in engine.go gives it. EngineMSBFS, the
	// only other value, is the benchmark probe's (see RootEngine).
	RootEngine RootEngine
	// RootBudget, when > 0, caps the total number of BFS roots processed:
	// each sub-graph keeps a proportional prefix of its root list,
	// ⌈|roots_i|·budget/total⌉ (so every non-empty sub-graph keeps at least
	// one root, and ceiling may push the realized total slightly past the
	// budget — Breakdown.Roots reports the real count). The prefix depends
	// only on (decomposition, budget), never on workers or kernel, so a
	// budgeted run is bit-deterministic across the whole worker/kernel
	// matrix, and budget >= total roots replays the exact computation
	// bit-for-bit. The scores are the exact contribution of the processed
	// roots — a Graph500-style throughput measure for at-scale benchmarking,
	// NOT an unbiased BC estimate; use ApproxCompute's pivot sampling for
	// estimation with error bounds.
	RootBudget int
	// Breakdown, when non-nil, receives phase timings and work counters
	// (Figure 8's execution-time breakdown).
	Breakdown *Breakdown
}

// Breakdown records where APGRE's time goes, mirroring Figure 8: the two
// preprocessing phases ("extra computations") and the BC calculation split
// into the top sub-graph and the rest.
type Breakdown struct {
	Partition time.Duration // graph partition (FINDBCC + merging + building)
	AlphaBeta time.Duration // counting α/β per articulation point
	TopBC     time.Duration // BC of the top (largest) sub-graph
	RestBC    time.Duration // BC of the remaining sub-graphs
	Total     time.Duration
	// TraversedArcs counts arcs examined during BC BFS phases — the
	// effective work after redundancy elimination.
	TraversedArcs int64
	// Roots is the number of BFS roots actually processed (|R| summed).
	Roots int64
	// Subgraphs and Articulations echo the decomposition's shape.
	Subgraphs     int
	Articulations int
}

// Compute runs the full APGRE pipeline on g and returns exact BC scores
// (directed-sum convention, identical to internal/brandes values). A
// weighted graph is swept with Dijkstra; either way the scores match
// brandes.Serial. A sweep whose path counts overflow float64 makes it return
// graph.ErrPathCountOverflow instead.
func Compute(g *graph.Graph, opt Options) ([]float64, error) {
	var tm decompose.Timings
	d, err := decompose.Decompose(g, decompose.Options{
		Threshold:    opt.Threshold,
		DisableGamma: opt.DisableGamma,
		Timings:      &tm,
	})
	if err != nil {
		return nil, err
	}
	if opt.Breakdown != nil {
		// Populate the preprocessing phases before the BC phase so
		// ComputeDecomposed folds them into Total (Figure 8's full sum).
		opt.Breakdown.Partition = tm.Partition
		opt.Breakdown.AlphaBeta = tm.AlphaBeta
	}
	return ComputeDecomposed(d, opt)
}

// ComputeDecomposed runs the BC phase of APGRE on an existing decomposition,
// weighted or not (the kernel follows d.G.Weighted()). The decomposition
// must have been built from the same graph with compatible options (in
// particular, DisableGamma must match the decomposition's roots). When
// opt.Breakdown is set, Total is always populated: it sums the BC phases
// plus whatever Partition/AlphaBeta values the caller pre-populated (Compute
// fills them from the decomposition timings; direct callers that did not time
// their own decomposition get Total = TopBC + RestBC).
func ComputeDecomposed(d *decompose.Decomposition, opt Options) ([]float64, error) {
	switch opt.Scheduler {
	case SchedulerDynamic, SchedulerStatic:
	default:
		return nil, fmt.Errorf("core: unknown scheduler %d", opt.Scheduler)
	}
	if err := validateEngine(d.G.Weighted(), opt.RootEngine); err != nil {
		return nil, err
	}
	groups := rootGroups(d, opt.RootBudget)
	contribs, err := sweepGroups(d, groups, par.Workers(opt.Workers), opt)
	if err != nil {
		return nil, err
	}
	bc := make([]float64, d.G.NumVertices())
	for i, gr := range groups {
		flushLocal(bc, gr.Subgraph, contribs[i])
	}
	return bc, nil
}

// rootGroups is what Compute sweeps: every sub-graph's budgeted root prefix
// (rootPrefix), in sub-graph order, leaving out the empty ones.
func rootGroups(d *decompose.Decomposition, budget int) []RootGroup {
	totalRoots := d.TotalRoots()
	var groups []RootGroup
	for _, sg := range d.Subgraphs {
		if nr := rootPrefix(len(sg.Roots), totalRoots, budget); nr > 0 {
			groups = append(groups, RootGroup{Subgraph: sg, Roots: sg.Roots[:nr]})
		}
	}
	return groups
}

// rootPrefix returns how many of a sub-graph's nr roots a budgeted run
// processes (see Options.RootBudget). budget <= 0 means no cap.
func rootPrefix(nr int, totalRoots int64, budget int) int {
	if budget <= 0 || totalRoots == 0 || int64(budget) >= totalRoots {
		return nr
	}
	return int((int64(nr)*int64(budget) + totalRoots - 1) / totalRoots)
}
