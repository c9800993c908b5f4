package main

import (
	"fmt"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/metrics"
)

// approxFractions are the pivot budgets swept by the error-vs-speedup
// experiment, as fractions of n. Budgets below approxMinPivots are raised to
// it; budgets at or above n are skipped (they would just replay exact BC).
var approxFractions = []float64{0.01, 0.02, 0.05, 0.10, 0.20}

const approxMinPivots = 16

// approxSeed keeps the experiment reproducible run-to-run; the estimator's
// only nondeterminism is its sampling permutation.
const approxSeed = 1

// approxExperiment measures the sampled estimator against exact APGRE on
// every selected dataset: one exact baseline, then one estimator run per
// pivot budget. Error is reported on the normalized scale (max absolute
// deviation divided by (n-1)(n-2)), next to the estimator's own bootstrap
// CI half-width and the Kendall tau-b rank correlation of the two score
// vectors — ranking quality is what most approximate-BC consumers care
// about.
func approxExperiment(c config) error {
	t := &metrics.Table{
		Title: fmt.Sprintf("Approximate BC: error vs speedup on %d workers (scale=%v)", c.workers, c.scale),
		Headers: []string{"graph", "pivots", "frac", "wall", "speedup",
			"max|err| (norm)", "est err", "kendall tau"},
	}
	for _, ds := range c.selected() {
		if ds.Directed {
			// The estimator handles directed graphs, but the exact/approx
			// comparison is most informative on the undirected stand-ins the
			// paper's decomposition targets; keep them and skip the rest when
			// no explicit dataset filter is set.
			if c.datasets == nil {
				continue
			}
		}
		g := ds.Build(c.scale)
		n := g.NumVertices()

		start := time.Now()
		exact, err := core.Compute(g, core.Options{Workers: c.workers, Threshold: c.threshold})
		if err != nil {
			return err
		}
		exactWall := time.Since(start)
		t.AddRow(ds.Name, n, "1.00", metrics.FormatDuration(exactWall), "1.0x", "0", "0", "1.000")

		norm := 1.0
		if n > 2 {
			norm = 1 / (float64(n-1) * float64(n-2))
		}
		lastPivots := -1
		for _, frac := range approxFractions {
			k := int(frac * float64(n))
			if k < approxMinPivots {
				k = approxMinPivots
			}
			if k >= n {
				continue
			}
			start = time.Now()
			res, err := approx.Estimate(g, approx.Options{Pivots: k, Seed: approxSeed,
				Workers: c.workers, Threshold: c.threshold})
			if err != nil {
				return err
			}
			wall := time.Since(start)
			// Small budgets can all land on the estimator's floor (presolve
			// plus two minimal batches); identical pivot counts mean an
			// identical seeded run, so keep only the first.
			if res.Pivots == lastPivots {
				continue
			}
			lastPivots = res.Pivots

			maxErr := 0.0
			for v := range exact {
				if d := res.BC[v] - exact[v]; d > maxErr {
					maxErr = d
				} else if -d > maxErr {
					maxErr = -d
				}
			}
			maxErr *= norm
			tau := metrics.KendallTau(exact, res.BC, approxSeed)
			t.AddRow(ds.Name, res.Pivots, fmt.Sprintf("%.2f", float64(res.Pivots)/float64(n)),
				metrics.FormatDuration(wall), metrics.FormatSpeedup(metrics.Speedup(exactWall, wall)),
				fmt.Sprintf("%.3g", maxErr), estErrCell(res),
				fmt.Sprintf("%.3f", tau))
		}
	}
	t.Render(c.w())
	return nil
}

// estErrCell renders the estimator's self-reported error; "-" when too few
// batches were taken to bootstrap one (the +Inf sentinel).
func estErrCell(res *approx.Result) string {
	if res.Exact {
		return "0"
	}
	if res.ErrEstimate != res.ErrEstimate || res.ErrEstimate > 1e300 {
		return "-"
	}
	return fmt.Sprintf("%.3g", res.ErrEstimate)
}
