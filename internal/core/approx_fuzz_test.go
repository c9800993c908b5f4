package core_test

import (
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
)

func init() {
	core.EstimateFullBudget = func(g *graph.Graph, workers, threshold int, seed int64) ([]float64, error) {
		res, err := approx.Estimate(g, approx.Options{Pivots: g.NumVertices(), Seed: seed,
			Workers: workers, Threshold: threshold})
		if err != nil {
			return nil, err
		}
		return res.BC, nil
	}
}
