package main

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/graph"
)

// workload is one named input plus how the system is driven over it. The
// parameters are copied from internal/datasets' stand-ins rather than taken
// through datasets.ByName(..).Build, because those bake their seeds in and the
// benchmark's inputs must be a function of -seed alone.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	// Kind selects the unit operation a child process times: "batch" is
	// cold file → load → decompose → sweep → scores on disk; "serve" is cold
	// file → bcd registry load → first top-K → one seeded edit block → a read
	// that reflects the last ack.
	Kind string
	// Loader is how the batch child opens the staged file: "file" is
	// graphio.LoadFile (what `bc -in` does), "mmap" is graphio.MmapGraph.
	Loader string
	// RootBudget caps the roots swept (core.Options.RootBudget); 0 is exact.
	RootBudget int
	// Params returns the generator parameters for a seed. toy shrinks the
	// input so the tier-1 tests finish in seconds.
	Params func(seed int64, toy bool) any
}

// rmatParams feeds gen.RMATStream; it exists so the at-scale input shows up in
// the result file's provenance like the other generators' parameter structs.
type rmatParams struct {
	Scale      int
	EdgeFactor int
	A, B, C    float64
	Directed   bool
	Seed       int64
}

var workloads = []workload{
	{
		Name: "social",
		Why:  "directed community graph, many APs and folded leaves: shallow wide BFS, serial per-AP alpha/beta is a fifth of wall, APGRE's best case",
		Kind: "batch", Loader: "file",
		// internal/datasets' wiki-talk stand-in (AvgDeg 5, 300 communities at
		// N=5000 growing with √scale, 26 % top core, 30 % leaves, directed,
		// 30 % reciprocal) at ×2.4. The issue sized it at ×6 (N=30 000), where
		// the serial-Brandes oracle alone takes 19 s — over half a run's
		// share of the driver's time cap — so the size was cut until oracle +
		// ≥5 timed reps per worker count fit. The layer shares the workload
		// exists for hold at this size: decompose is 26 % of wall (α/β alone
		// 18 %, serial), 309 sub-graphs, see README.md.
		Params: func(seed int64, toy bool) any {
			n := 12000
			if toy {
				n = 900
			}
			return gen.SocialParams{
				N: n, AvgDeg: 5,
				Communities: int(300 * math.Sqrt(float64(n)/5000)),
				TopShare:    0.26, LeafFrac: 0.30,
				Directed: true, Reciprocity: 0.3, Seed: seed,
			}
		},
	},
	{
		Name: "road",
		Why:  "lattice with dead-end spurs, one giant biconnected block: deep narrow BFS, decomposition finds almost nothing to fold, the sweep is 99% of wall",
		Kind: "batch", Loader: "file",
		// internal/datasets' usa-roadbay stand-in (63×63 lattice, 12 % of
		// edges deleted, 18 % spur probability, spurs ≤ 4) kept at ×1: the
		// issue's ×1.5 (77×77) needs 3.8 s of oracle and 1.7 s per rep, which
		// leaves fewer than five reps per worker count inside a run.
		Params: func(seed int64, toy bool) any {
			side := 63
			if toy {
				side = 14
			}
			return gen.RoadParams{Rows: side, Cols: side,
				DeleteFrac: 0.12, SpurFrac: 0.18, SpurLen: 4, Seed: seed}
		},
	},
	{
		Name: "scale",
		Why:  "R-MAT past the L2 cache, mmap-loaded, 128-root budget: the only input where file load and BCC partition are a large share of wall and peak RSS is the CSR's multiple",
		Kind: "batch", Loader: "mmap",
		// Two 64-root units = one per worker on this 2-core box, so the sweep
		// is a fixed, small amount of work and load + partition stay visible.
		RootBudget: 128,
		// Graph500-style R-MAT (a,b,c = .57,.19,.19, edge factor 8,
		// undirected). The issue sized it at scale 18 (4.1 s per rep); five
		// reps at nproc plus three at p=1 of that do not fit a run, so it is
		// scale 17: 131 072 vertices, ~1.9 M arcs, a 7.6 MB adjacency plus
		// ~5 MB of sweep state per worker against a 2 MiB per-core L2.
		Params: func(seed int64, toy bool) any {
			scale := 17
			if toy {
				scale = 9
			}
			return rmatParams{Scale: scale, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
		},
	},
	{
		Name: "serve",
		Why:  "undirected community graph behind the bcd registry over loopback HTTP: cold load, seeded local and structural edge edits through WAL and core.Incremental, reads beside writes",
		Kind: "serve",
		// internal/datasets' com-youtube stand-in (AvgDeg 10, 200 communities
		// at N=4400, 46 % top core, 53 % leaves, undirected). Every local
		// mutation recomputes the top sub-graph (57 % of the vertices, 98 % of
		// the sweep), ~240 ms at N=4400 and ~125 ms at N=3000; at N=2000 a
		// 10-op edit block fits a sub-second timed session and the traced
		// run's 9 s mixed phase collects the >100 mutations a p90 needs.
		Params: func(seed int64, toy bool) any {
			n := 2000
			communities := int(200 * math.Sqrt(float64(n)/4400))
			if toy {
				// Three communities of ≥ 64 core vertices each, so the
				// default merge threshold leaves more than one sub-graph and
				// the edit script has structural candidates.
				n, communities = 700, 3
			}
			return gen.SocialParams{N: n, AvgDeg: 10, Communities: communities,
				TopShare: 0.46, LeafFrac: 0.53, Seed: seed}
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// canaryParams is the scale workload's exactness check: the same R-MAT family
// small enough (2048 vertices) to compute exactly and compare against serial
// Brandes, since no full oracle is feasible on the budgeted at-scale input.
func canaryParams(seed int64, toy bool) rmatParams {
	scale := 11
	if toy {
		scale = 8
	}
	return rmatParams{Scale: scale, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// buildGraph runs the generator named by the parameter struct's type. workers
// bounds gen.BuildCSR's parallelism (≤ nproc, so generation never
// oversubscribes the box it is timed on).
func buildGraph(params any, workers int) *graph.Graph {
	switch p := params.(type) {
	case gen.SocialParams:
		return gen.SocialLike(p)
	case gen.RoadParams:
		return gen.RoadLike(p)
	case rmatParams:
		return gen.BuildCSR(gen.RMATStream(p.Scale, p.EdgeFactor, p.A, p.B, p.C, p.Directed, p.Seed), workers)
	}
	panic(fmt.Sprintf("bench: no generator for %T", params))
}
