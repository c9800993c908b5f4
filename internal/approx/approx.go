// Package approx estimates betweenness centrality from a sample of source
// pivots, fused with the APGRE decomposition (internal/decompose +
// internal/core).
//
// Exact APGRE runs one four-dependency sweep per root in every sub-graph's
// root set R_i (the vertices surviving γ folding). BC factorizes over those
// sweeps:
//
//	BC(v) = Σ_i Σ_{s ∈ R_i} C_{i,s}(v)
//
// where C_{i,s} is root s's full contribution bundle — δ_i2i, δ_i2o, δ_o2i,
// δ_o2o and the γ root term, including every α/β boundary seed. The
// estimator samples k_i roots uniformly without replacement from each R_i
// and scales that sub-graph's sampled contributions by |R_i|/k_i
// (Horvitz–Thompson with equal inclusion probabilities), which keeps the
// estimate unbiased per vertex. The α/β/γ corrections stay exact under
// sampling because they are properties of the decomposition evaluated
// inside each sampled sweep, not quantities being sampled; only the outer
// sum over roots is subsampled.
//
// Budgets are allocated across sub-graphs proportionally to sub-graph size
// and capped at |R_i|, so a budget of n (the whole-graph root count) or more
// saturates every sub-graph: each scale factor becomes exactly 1 and the
// estimator hands core.SweepRoots each sub-graph's whole root list: full-budget
// results bit-match core.Compute at any worker count (TestExactBudgetBitMatch).
// Every sweep, presolve or pivot batch, is such a (sub-graph, roots) group,
// swept on Options.Workers and folded back in sub-graph order. Sub-graphs with
// at most presolveRoots roots are always solved exactly up front; sampling
// only pays off in large sub-graphs, and exactness there is nearly free.
//
// The adaptive mode (Options.Eps) keeps drawing fixed-size pivot batches.
// Each batch is itself an unbiased estimate of the still-sampled part of
// BC, so a percentile-free bootstrap over the per-batch estimate vectors
// yields a per-vertex confidence-interval half-width; refinement stops once
// the maximum half-width, on the normalized scale BC/((n−1)(n−2)), drops
// below Eps. The stopping rule is a heuristic (batches estimating
// sub-graphs that later saturate make it conservative); the bcbench
// error-vs-speedup experiment validates it against measured error.
package approx

import (
	"fmt"

	"repro/internal/decompose"
	"repro/internal/graph"
)

// Defaults and tuning constants.
const (
	// batchSize is the pivot count per adaptive refinement batch.
	batchSize = 64
	// z95 is Φ⁻¹(0.975), the two-sided 95 % standard-normal critical value
	// of the adaptive stopping rule's per-vertex intervals, as Acklam's
	// inverse-normal approximation gives it in float64.
	z95 = 1.959963986120195
	// presolveRoots: sub-graphs with at most this many roots are solved
	// exactly during estimator construction instead of being sampled.
	presolveRoots = 32
	// maxStoredBatches bounds the memory of the bootstrap: beyond this many
	// batch vectors, adjacent pairs are averaged (which preserves the mean
	// and the variance of the mean the bootstrap estimates).
	maxStoredBatches = 32
	// bootstrapResamples is the number of bootstrap resamples per error
	// evaluation.
	bootstrapResamples = 64
)

// Options configures an estimate. Exactly one of Pivots or Eps selects
// Estimate's mode.
type Options struct {
	// Pivots is the fixed source-sample budget. Budgets >= the vertex count
	// (or the decomposition's total root count) are served by the exact
	// root schedule. Tiny sub-graphs are always solved exactly, so the
	// budget is a target, not a hard cap.
	Pivots int
	// Eps selects adaptive mode: sample until the maximum per-vertex
	// confidence-interval half-width on normalized BC drops below Eps.
	Eps float64
	// Seed makes the sampler deterministic: the same seed, options and
	// graph reproduce identical estimates for any worker count.
	Seed int64
	// Workers bounds goroutine parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Threshold is the merge threshold Estimate decomposes g with.
	Threshold int
}

// Result is a finished estimate.
type Result struct {
	// BC holds the estimated scores (directed-sum convention, same as the
	// exact engine).
	BC []float64
	// Pivots is the number of root sweeps actually run (sampled plus
	// presolved), and ExactRoots the sweeps the exact engine would run.
	Pivots     int
	ExactRoots int64
	// Batches is the number of stochastic refinement batches drawn.
	Batches int
	// Exact reports that every sub-graph saturated: BC carries no sampling
	// error.
	Exact bool
	// ErrEstimate is the bootstrap confidence-interval half-width on
	// normalized BC (max over vertices): 0 when Exact, +Inf when fewer
	// than two batches exist to estimate from.
	ErrEstimate float64
}

// Estimate decomposes g and runs the estimator in the mode Options selects:
// fixed budget (Pivots > 0) or adaptive (Eps > 0). Options that select
// neither mode or both are an error, returned before any work. A sweep whose
// path counts overflow float64 makes it return graph.ErrPathCountOverflow.
func Estimate(g *graph.Graph, opt Options) (*Result, error) {
	if g.Weighted() {
		return nil, fmt.Errorf("approx: weighted graphs are not supported")
	}
	if (opt.Pivots > 0) == (opt.Eps > 0) {
		return nil, fmt.Errorf("approx: Options needs exactly one of Pivots > 0 or Eps > 0, got Pivots=%d Eps=%g", opt.Pivots, opt.Eps)
	}
	d, err := decompose.Decompose(g, decompose.Options{Threshold: opt.Threshold})
	if err != nil {
		return nil, err
	}
	est, err := newEstimator(d, opt)
	if err != nil {
		return nil, err
	}
	if opt.Pivots > 0 {
		err = est.ensureBudget(opt.Pivots)
	} else {
		err = est.ensureEps(opt.Eps)
	}
	if err != nil {
		return nil, err
	}
	r := est.result()
	return &r, nil
}
