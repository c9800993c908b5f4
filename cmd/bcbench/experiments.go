package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/bcc"
	"repro/internal/brandes"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/metrics"
)

type config struct {
	scale     float64
	workers   int
	threshold int
	datasets  map[string]bool
	algos     map[string]bool
	out       io.Writer // defaults to os.Stdout in main; injectable in tests
}

func (c config) w() io.Writer {
	if c.out != nil {
		return c.out
	}
	return os.Stdout
}

func (c config) keepDataset(name string) bool {
	return c.datasets == nil || c.datasets[name]
}

func (c config) keepAlgo(name string) bool {
	return c.algos == nil || c.algos[name]
}

func dsByName(name string) (datasets.Dataset, error) { return datasets.ByName(name) }

func (c config) selected() []datasets.Dataset {
	var out []datasets.Dataset
	for _, d := range datasets.All() {
		if c.keepDataset(d.Name) {
			out = append(out, d)
		}
	}
	return out
}

// table1 prints the evaluation graphs: paper sizes and generated stand-in
// sizes at the current scale.
func table1(c config) error {
	t := &metrics.Table{
		Title:   "Table 1. Evaluation graphs (synthetic stand-ins, scale=" + fmt.Sprint(c.scale) + ")",
		Headers: []string{"graph", "paper|V|", "paper|E|", "dir", "gen|V|", "gen|E|", "description"},
	}
	for _, d := range c.selected() {
		g := d.Build(c.scale)
		dir := "N"
		if d.Directed {
			dir = "Y"
		}
		t.AddRow(d.Name, d.PaperVerts, d.PaperEdges, dir, g.NumVertices(), g.NumEdges(), d.Description)
	}
	t.Render(c.w())
	return nil
}

// table4 prints the decomposition shape: sub-graph count and the top three
// sub-graphs' sizes with their share of the whole graph. E counts swept edges
// (decompose.SizeInfo): the folded degree-1 vertices' edges are in G.E only.
func table4(c config) error {
	t := &metrics.Table{
		Title: "Table 4. Size of sub-graphs (top three; E = swept edges)",
		Headers: []string{"graph", "#SG", "#AP", "top V", "top E", "V/G.V", "E/G.E",
			"2nd V", "2nd E", "3rd V", "3rd E"},
	}
	for _, ds := range c.selected() {
		g := ds.Build(c.scale)
		d, err := decompose.Decompose(g, decompose.Options{Threshold: c.threshold})
		if err != nil {
			return err
		}
		sizes := d.SubgraphSizes()
		get := func(i int) (int, int64) {
			if i < len(sizes) {
				return sizes[i].Verts, sizes[i].Arcs / arcDiv(g)
			}
			return 0, 0
		}
		v0, e0 := get(0)
		v1, e1 := get(1)
		v2, e2 := get(2)
		t.AddRow(ds.Name, len(d.Subgraphs), d.NumArticulation, v0, e0,
			metrics.Percent(float64(v0)/float64(g.NumVertices())),
			metrics.Percent(float64(e0*arcDiv(g))/float64(g.NumArcs())),
			v1, e1, v2, e2)
	}
	t.Render(c.w())
	return nil
}

// arcDiv converts arcs to logical edges for reporting.
func arcDiv(g *graph.Graph) int64 {
	if g.Directed() {
		return 1
	}
	return 2
}

// figure2 prints the motivation census: articulation points and single-edge
// vertices per graph, plus the Human Disease Network stand-in.
func figure2(c config) error {
	t := &metrics.Table{
		Title:   "Figure 2. Articulation points and single-edge vertices",
		Headers: []string{"graph", "|V|", "|E|", "#articulation", "AP%", "#degree-1", "deg1%"},
	}
	row := func(name string, g *graph.Graph) {
		aps, deg1 := bcc.CountArticulationPoints(g)
		n := float64(g.NumVertices())
		t.AddRow(name, g.NumVertices(), g.NumEdges(), aps, metrics.Percent(float64(aps)/n),
			deg1, metrics.Percent(float64(deg1)/n))
	}
	hd, err := datasets.ByName("human-disease")
	if err != nil {
		return err
	}
	row(hd.Name, hd.Build(c.scale))
	for _, d := range c.selected() {
		row(d.Name, d.Build(c.scale))
	}
	t.Render(c.w())
	return nil
}

// figure7 prints the redundancy breakdown of Brandes' work.
func figure7(c config) error {
	t := &metrics.Table{
		Title:   "Figure 7. Breakdown of BC computation (share of Brandes' work)",
		Headers: []string{"graph", "effective", "partial-redundant", "total-redundant", "method"},
	}
	for _, ds := range c.selected() {
		g := ds.Build(c.scale)
		d, err := decompose.Decompose(g, decompose.Options{Threshold: c.threshold})
		if err != nil {
			return err
		}
		rep := core.AnalyzeRedundancy(g, d, 0, 1)
		method := "exact"
		if rep.Sampled {
			method = "sampled"
		}
		t.AddRow(ds.Name, metrics.Percent(rep.Effective), metrics.Percent(rep.Partial),
			metrics.Percent(rep.Total), method)
	}
	t.Render(c.w())
	return nil
}

// algoRunner runs one named algorithm, returning scores (ignored) and an
// error mirroring the paper's "-" table entries (unsupported cells).
type algoRunner struct {
	name string
	run  func(g *graph.Graph, workers, threshold int) ([]float64, error)
}

func runners() []algoRunner {
	rs := []algoRunner{{"apgre", func(g *graph.Graph, w, th int) ([]float64, error) {
		return core.Compute(g, core.Options{Workers: w, Threshold: th})
	}}}
	for _, b := range brandes.Baselines {
		if b.Name != "serial" { // the tables time serial as their reference column
			rs = append(rs, algoRunner{b.Name, func(g *graph.Graph, w, _ int) ([]float64, error) { return b.Run(g, w) }})
		}
	}
	return rs
}

// timings runs serial Brandes plus every algorithm on every dataset once and
// prints whichever of Table 2 (seconds), Table 3 (MTEPS) and Figure 6
// (speedups) were requested.
func timings(c config, want map[string]bool) error {
	type meas struct {
		name    string
		n       int
		m       int64
		serial  time.Duration
		algo    map[string]time.Duration
		missing map[string]bool
	}
	var res []meas
	rs := runners()
	for _, ds := range c.selected() {
		g := ds.Build(c.scale)
		m := meas{name: ds.Name, n: g.NumVertices(), m: g.NumEdges(),
			algo: map[string]time.Duration{}, missing: map[string]bool{}}
		start := time.Now()
		brandes.Serial(g)
		m.serial = time.Since(start)
		for _, r := range rs {
			if !c.keepAlgo(r.name) {
				continue
			}
			start = time.Now()
			if _, err := r.run(g, c.workers, c.threshold); err != nil {
				m.missing[r.name] = true // e.g. async on directed graphs
				continue
			}
			m.algo[r.name] = time.Since(start)
		}
		res = append(res, m)
	}

	headers := []string{"graph", "serial"}
	for _, r := range rs {
		if c.keepAlgo(r.name) {
			headers = append(headers, r.name)
		}
	}
	cell := func(m meas, name string, f func(meas, time.Duration) string) string {
		if m.missing[name] {
			return "-"
		}
		d, ok := m.algo[name]
		if !ok {
			return "-"
		}
		return f(m, d)
	}

	if want["t2"] {
		t := &metrics.Table{
			Title:   fmt.Sprintf("Table 2. Execution time on %d workers (scale=%v)", c.workers, c.scale),
			Headers: headers,
		}
		for _, m := range res {
			row := []any{m.name, metrics.FormatDuration(m.serial)}
			for _, r := range rs {
				if c.keepAlgo(r.name) {
					row = append(row, cell(m, r.name, func(m meas, d time.Duration) string {
						return metrics.FormatDuration(d)
					}))
				}
			}
			t.AddRow(row...)
		}
		t.Render(c.w())
		fmt.Fprintln(c.w())
	}
	if want["t3"] {
		t := &metrics.Table{
			Title:   fmt.Sprintf("Table 3. Search rate in MTEPS (n·m/t) on %d workers", c.workers),
			Headers: headers,
		}
		for _, m := range res {
			row := []any{m.name, metrics.FormatMTEPS(metrics.MTEPS(m.n, m.m, m.serial))}
			for _, r := range rs {
				if c.keepAlgo(r.name) {
					row = append(row, cell(m, r.name, func(m meas, d time.Duration) string {
						return metrics.FormatMTEPS(metrics.MTEPS(m.n, m.m, d))
					}))
				}
			}
			t.AddRow(row...)
		}
		t.Render(c.w())
		fmt.Fprintln(c.w())
	}
	if want["f6"] {
		t := &metrics.Table{
			Title:   "Figure 6. Speedup relative to serial Brandes",
			Headers: headers[:1:1],
		}
		t.Headers = append(t.Headers, headers[2:]...) // drop the serial column
		for _, m := range res {
			row := []any{m.name}
			for _, r := range rs {
				if c.keepAlgo(r.name) {
					row = append(row, cell(m, r.name, func(m meas, d time.Duration) string {
						return metrics.FormatSpeedup(metrics.Speedup(m.serial, d))
					}))
				}
			}
			t.AddRow(row...)
		}
		t.Render(c.w())
	}
	return nil
}

// figure8 prints APGRE's execution time breakdown.
func figure8(c config) error {
	t := &metrics.Table{
		Title: fmt.Sprintf("Figure 8. APGRE execution time breakdown on %d workers", c.workers),
		Headers: []string{"graph", "partition", "alpha/beta", "bc(top)", "bc(rest)",
			"extra%", "total"},
	}
	for _, ds := range c.selected() {
		g := ds.Build(c.scale)
		var bd core.Breakdown
		if _, err := core.Compute(g, core.Options{Workers: c.workers,
			Threshold: c.threshold, Breakdown: &bd}); err != nil {
			return err
		}
		extra := float64(bd.Partition+bd.AlphaBeta) / float64(bd.Total)
		t.AddRow(ds.Name, bd.Partition, bd.AlphaBeta, bd.TopBC, bd.RestBC,
			metrics.Percent(extra), bd.Total)
	}
	t.Render(c.w())
	return nil
}

// figure9 sweeps worker counts for every algorithm on the dblp stand-in.
func figure9(c config) error {
	ds, err := datasets.ByName("dblp-2010")
	if err != nil {
		return err
	}
	g := ds.Build(c.scale)
	sweep := []int{1, 2, 4, 6, 8, 12}
	t := &metrics.Table{
		Title:   fmt.Sprintf("Figure 9. Parallel scaling on %s (%d vertices, %d edges)", ds.Name, g.NumVertices(), g.NumEdges()),
		Headers: append([]string{"algorithm"}, workerHeaders(sweep)...),
	}
	for _, r := range runners() {
		if !c.keepAlgo(r.name) {
			continue
		}
		row := []any{r.name}
		for _, w := range sweep {
			start := time.Now()
			if _, err := r.run(g, w, c.threshold); err != nil {
				row = append(row, "-")
				continue
			}
			row = append(row, metrics.FormatDuration(time.Since(start)))
		}
		t.AddRow(row...)
	}
	t.Render(c.w())
	return nil
}

// figure10 sweeps APGRE worker counts up to 32 on the two largest stand-ins.
func figure10(c config) error {
	sweep := []int{1, 2, 4, 8, 16, 24, 32}
	t := &metrics.Table{
		Title:   "Figure 10. APGRE scaling to 32 workers",
		Headers: append([]string{"graph"}, workerHeaders(sweep)...),
	}
	for _, name := range []string{"wiki-talk", "com-youtube"} {
		if !c.keepDataset(name) {
			continue
		}
		ds, err := datasets.ByName(name)
		if err != nil {
			return err
		}
		g := ds.Build(c.scale)
		row := []any{name}
		for _, w := range sweep {
			start := time.Now()
			if _, err := core.Compute(g, core.Options{Workers: w,
				Threshold: c.threshold}); err != nil {
				return err
			}
			row = append(row, metrics.FormatDuration(time.Since(start)))
		}
		t.AddRow(row...)
	}
	t.Render(c.w())
	return nil
}

// kernelRows are the two rows of a kernel sweep: core's per-unit rule, and
// lanes forced on every unit the lane kernel can run.
var kernelRows = []struct {
	name string
	eng  core.RootEngine
}{{"rule", 0}, {"lanes", core.EngineMSBFS}}

// firstBitDiff returns the first index at which two score vectors are not the
// same bits, -1 if there is none: the sweep kernels are bit-identical at every
// size (core's TestLaneKernelBitMatchesScalarAtScale), nothing looser is asked.
func firstBitDiff(a, b []float64) int {
	for v := range a {
		if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			return v
		}
	}
	return -1
}

// engineExperiment holds core's kernel rule — lanes where a unit's lane state
// fits the budget, the scalar sweep elsewhere — against lanes forced onto every
// unit (kernelRows), at serial and the harness worker count on every selected
// dataset. The decomposition is built once per graph outside the timed region;
// the lanes row's gain is rule/lanes wall at the largest worker count — below
// 1× wherever the rule is right to keep a sub-graph scalar — and every forced
// cell is checked bit-for-bit against the rule's at the same worker count.
func engineExperiment(c config) error {
	sweep := []int{1, c.workers}
	if c.workers <= 1 {
		sweep = []int{1}
	}
	t := &metrics.Table{
		Title:   "Kernel sweep. APGRE kernel rule vs lanes forced on every unit",
		Headers: append([]string{"graph", "kernel"}, append(workerHeaders(sweep), "gain")...),
	}
	for _, ds := range c.selected() {
		g := ds.Build(c.scale)
		d, err := decompose.Decompose(g, decompose.Options{
			Threshold: c.threshold, Workers: c.workers})
		if err != nil {
			return err
		}
		ruleWall := map[int]time.Duration{}
		ruleBC := map[int][]float64{}
		for _, k := range kernelRows {
			row := []any{ds.Name, k.name}
			var gain string
			for _, w := range sweep {
				// Best-of-N with an adaptive N: sub-millisecond cells are
				// noise-dominated in one shot, so repeat until ~150ms of
				// total measurement (capped at 20 reps) and keep the
				// fastest run. The work is deterministic, so the fastest
				// run is the least-perturbed measurement of the same
				// computation — the gain should not hinge on scheduler
				// jitter.
				var bc []float64
				var dur time.Duration
				for rep, spent := 0, time.Duration(0); rep == 0 || (spent < 150*time.Millisecond && rep < 20); rep++ {
					start := time.Now()
					repBC, err := core.ComputeDecomposed(d, core.Options{Workers: w,
						Threshold: c.threshold, RootEngine: k.eng})
					if err != nil {
						return err
					}
					el := time.Since(start)
					spent += el
					if rep == 0 || el < dur {
						dur, bc = el, repBC
					}
				}
				if k.eng == 0 {
					ruleWall[w] = dur
					ruleBC[w] = bc
				} else {
					if w == sweep[len(sweep)-1] {
						gain = metrics.FormatSpeedup(metrics.Speedup(ruleWall[w], dur))
					}
					if v := firstBitDiff(bc, ruleBC[w]); v >= 0 {
						return fmt.Errorf("kernel sweep: %s p=%d vertex %d: forced lanes %v != rule %v",
							ds.Name, w, v, bc[v], ruleBC[w][v])
					}
				}
				row = append(row, metrics.FormatDuration(dur))
			}
			if gain == "" {
				gain = "-"
			}
			t.AddRow(append(row, gain)...)
		}
	}
	t.Render(c.w())
	return nil
}

func workerHeaders(sweep []int) []string {
	out := make([]string, len(sweep))
	for i, w := range sweep {
		out[i] = fmt.Sprintf("p=%d", w)
	}
	return out
}
