package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/brandes"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// extensions prints the measurements for the repository's beyond-the-paper
// features (DESIGN.md extension inventory): weighted APGRE vs
// Dijkstra-Brandes, AP-accelerated closeness vs per-vertex BFS, and
// incremental update throughput vs recomputation.
func extensions(c config) error {
	if err := extWeighted(c); err != nil {
		return err
	}
	fmt.Fprintln(c.w())
	if err := extCloseness(c); err != nil {
		return err
	}
	fmt.Fprintln(c.w())
	if err := extIncremental(c); err != nil {
		return err
	}
	fmt.Fprintln(c.w())
	return extApproximation(c)
}

// extApproximation measures the pivot strategies' top-10 recall and mean
// relative error against exact BC at 5%/10%/20% sample rates (the Brandes &
// Pich [20] comparison, run on the enron stand-in).
func extApproximation(c config) error {
	ds, err := dsByName("email-enron")
	if err != nil {
		return err
	}
	g := ds.Build(c.scale)
	exact := brandes.Serial(g)
	exactTop := topSet(exact, 10)

	t := &metrics.Table{
		Title:   "Extension E7+. Approximation quality (email-enron stand-in)",
		Headers: []string{"strategy", "sample%", "recall@10", "mean rel err"},
	}
	strategies := []struct {
		name string
		s    brandes.PivotStrategy
	}{
		{"uniform", brandes.PivotUniform},
		{"degree", brandes.PivotDegree},
		{"maxmin", brandes.PivotMaxMin},
	}
	for _, strat := range strategies {
		for _, frac := range []float64{0.05, 0.10, 0.20} {
			k := int(frac * float64(g.NumVertices()))
			approx, err := brandes.SampledWith(g, k, strat.s, 17)
			if err != nil {
				return err
			}
			hits := 0
			for v := range topSet(approx, 10) {
				if exactTop[v] {
					hits++
				}
			}
			var relErr float64
			var counted int
			for v := range exact {
				if exact[v] > 0 {
					d := approx[v] - exact[v]
					if d < 0 {
						d = -d
					}
					relErr += d / exact[v]
					counted++
				}
			}
			t.AddRow(strat.name, fmt.Sprintf("%.0f%%", 100*frac),
				fmt.Sprintf("%d/10", hits), fmt.Sprintf("%.3f", relErr/float64(counted)))
		}
	}
	t.Render(c.w())
	return nil
}

func topSet(x []float64, k int) map[int]bool {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] > x[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := map[int]bool{}
	for _, i := range idx[:k] {
		out[i] = true
	}
	return out
}

func extWeighted(c config) error {
	t := &metrics.Table{
		Title:   "Extension E2. Weighted BC: Dijkstra-Brandes vs weighted APGRE",
		Headers: []string{"graph", "dijkstra-brandes", "weighted APGRE", "speedup"},
	}
	for _, ds := range c.selected() {
		g := gen.WithRandomWeights(ds.Build(c.scale), 9, 7)
		start := time.Now()
		brandes.WeightedSerial(g)
		base := time.Since(start)
		start = time.Now()
		if _, err := core.ComputeWeighted(g, core.Options{Workers: c.workers,
			Threshold: c.threshold}); err != nil {
			return err
		}
		apgre := time.Since(start)
		t.AddRow(ds.Name, base, apgre, metrics.FormatSpeedup(metrics.Speedup(base, apgre)))
	}
	t.Render(c.w())
	return nil
}

func extCloseness(c config) error {
	t := &metrics.Table{
		Title:   "Extension E5. Closeness: per-vertex BFS vs AP-accelerated",
		Headers: []string{"graph", "exact BFS", "decomposed", "speedup"},
	}
	for _, ds := range c.selected() {
		if ds.Directed {
			continue // the decomposed engine is undirected-only
		}
		g := ds.Build(c.scale)
		start := time.Now()
		closeness.Exact(g, c.workers)
		base := time.Since(start)
		start = time.Now()
		if _, err := closeness.Decomposed(g, closeness.Options{Workers: c.workers, Threshold: c.threshold}); err != nil {
			return err
		}
		dec := time.Since(start)
		t.AddRow(ds.Name, base, dec, metrics.FormatSpeedup(metrics.Speedup(base, dec)))
	}
	t.Render(c.w())
	return nil
}

func extIncremental(c config) error {
	t := &metrics.Table{
		Title: "Extension E6. Incremental BC: 20 triadic edge updates",
		Headers: []string{"graph", "initial build", "per-update", "cross-sub-graph",
			"full recompute (ref)"},
	}
	for _, name := range []string{"email-enron", "com-youtube"} {
		if !c.keepDataset(name) {
			continue
		}
		ds, err := dsByName(name)
		if err != nil {
			return err
		}
		g := ds.Build(c.scale)
		start := time.Now()
		inc, err := core.NewIncremental(g, core.Options{Threshold: c.threshold})
		if err != nil {
			return err
		}
		build := time.Since(start)
		r := rand.New(rand.NewSource(13))
		applied := 0
		start = time.Now()
		for applied < 20 {
			u := graph.V(r.Intn(g.NumVertices()))
			nbrs := inc.Graph().Out(u)
			if len(nbrs) == 0 {
				continue
			}
			hop := nbrs[r.Intn(len(nbrs))]
			nn := inc.Graph().Out(hop)
			if len(nn) == 0 {
				continue
			}
			v := nn[r.Intn(len(nn))]
			if u == v {
				continue
			}
			var opErr error
			if inc.Graph().HasArc(u, v) {
				opErr = inc.RemoveEdge(u, v)
			} else {
				opErr = inc.InsertEdge(u, v)
			}
			if opErr != nil {
				return opErr
			}
			applied++
		}
		stream := time.Since(start)
		start = time.Now()
		if _, err := core.Compute(inc.Graph(), core.Options{Threshold: c.threshold}); err != nil {
			return err
		}
		full := time.Since(start)
		t.AddRow(name, build, stream/20, inc.FullRebuilds(), full)
	}
	t.Render(c.w())
	return nil
}
