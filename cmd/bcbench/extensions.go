package main

import (
	"fmt"
	"math/rand"
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
	return extIncremental(c)
}

func extWeighted(c config) error {
	t := &metrics.Table{
		Title:   "Extension E2. Weighted BC: Dijkstra-Brandes vs weighted APGRE",
		Headers: []string{"graph", "dijkstra-brandes", "weighted APGRE", "speedup"},
	}
	for _, ds := range c.selected() {
		g := gen.WithRandomWeights(ds.Build(c.scale), 9, 7)
		start := time.Now()
		brandes.Serial(g)
		base := time.Since(start)
		start = time.Now()
		if _, err := core.Compute(g, core.Options{Workers: c.workers,
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
