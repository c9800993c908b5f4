package repro

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) as testing.B targets. cmd/bcbench prints the same data as formatted
// tables; these benches integrate with `go test -bench` tooling and record
// the paper's derived metrics (MTEPS, speedups, redundancy fractions) via
// b.ReportMetric.
//
// Scale: benches default to 0.1× the already-scaled-down dataset registry so
// `go test -bench=. -benchmem ./...` finishes in minutes on one core; set
// REPRO_BENCH_SCALE to raise it.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bcc"
	"repro/internal/brandes"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.1
}

var (
	graphCacheMu sync.Mutex
	graphCache   = map[string]*graph.Graph{}
)

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	key := fmt.Sprintf("%s@%v", name, benchScale())
	if g, ok := graphCache[key]; ok {
		return g
	}
	ds, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Build(benchScale())
	// Pre-build the transpose so it is not charged to the first algorithm.
	g.EnsureTranspose()
	graphCache[key] = g
	return g
}

type benchAlgo struct {
	name string
	run  func(g *graph.Graph) ([]float64, error)
}

func benchAlgos() []benchAlgo {
	algos := []benchAlgo{
		{"serial", func(g *graph.Graph) ([]float64, error) { return brandes.Serial(g), nil }},
		{"apgre", func(g *graph.Graph) ([]float64, error) { return core.Compute(g, core.Options{}) }},
	}
	for _, b := range brandes.Baselines {
		if b.Name != "serial" {
			algos = append(algos, benchAlgo{b.Name, func(g *graph.Graph) ([]float64, error) { return b.Run(g, 0) }})
		}
	}
	return algos
}

// BenchmarkTable2 measures execution time of every algorithm on every
// dataset (paper Table 2). Unsupported combinations (async on directed
// graphs) are skipped, mirroring the paper's "-" entries.
func BenchmarkTable2(b *testing.B) {
	for _, name := range datasets.Names() {
		for _, a := range benchAlgos() {
			b.Run(name+"/"+a.name, func(b *testing.B) {
				g := benchGraph(b, name)
				if _, err := a.run(g); err != nil {
					b.Skipf("unsupported: %v", err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.run(g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3 measures the search rate (MTEPS = n·m/t, paper Table 3)
// for serial Brandes and APGRE, reported via the mteps metric.
func BenchmarkTable3(b *testing.B) {
	for _, name := range datasets.Names() {
		for _, a := range benchAlgos()[:2] { // serial and apgre carry Table 3's story
			b.Run(name+"/"+a.name, func(b *testing.B) {
				g := benchGraph(b, name)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.run(g); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				per := b.Elapsed() / time.Duration(max(1, b.N))
				b.ReportMetric(metrics.MTEPS(g.NumVertices(), g.NumEdges(), per), "mteps")
			})
		}
	}
}

// BenchmarkTable4 measures the decomposition itself (Algorithm 1 + α/β) and
// reports the sub-graph profile of paper Table 4.
func BenchmarkTable4(b *testing.B) {
	for _, name := range datasets.Names() {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name)
			var d *decompose.Decomposition
			var err error
			for i := 0; i < b.N; i++ {
				d, err = decompose.Decompose(g, decompose.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(d.Subgraphs)), "subgraphs")
			if d.TopIndex >= 0 {
				top := d.Subgraphs[d.TopIndex]
				b.ReportMetric(100*float64(top.NumVerts())/float64(g.NumVertices()), "topV%")
			}
		})
	}
}

// BenchmarkFigure2 measures the articulation-point census of the motivation
// figure.
func BenchmarkFigure2(b *testing.B) {
	_, g := datasets.HumanDisease()
	var aps, deg1 int
	for i := 0; i < b.N; i++ {
		aps, deg1 = bcc.CountArticulationPoints(g)
	}
	b.ReportMetric(float64(aps), "articulation")
	b.ReportMetric(float64(deg1), "degree1")
}

// BenchmarkFigure6 reports APGRE's speedup over serial Brandes per dataset
// (paper Figure 6) via the speedup metric.
func BenchmarkFigure6(b *testing.B) {
	for _, name := range datasets.Names() {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name)
			start := time.Now()
			brandes.Serial(g)
			serial := time.Since(start)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(g, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			per := b.Elapsed() / time.Duration(max(1, b.N))
			b.ReportMetric(metrics.Speedup(serial, per), "speedup")
		})
	}
}

// BenchmarkFigure7 measures the redundancy analysis and reports the
// effective / partial / total split (paper Figure 7) as metrics.
func BenchmarkFigure7(b *testing.B) {
	for _, name := range datasets.Names() {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name)
			d, err := decompose.Decompose(g, decompose.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var rep *core.RedundancyReport
			for i := 0; i < b.N; i++ {
				rep = core.AnalyzeRedundancy(g, d, 0, 1)
			}
			b.ReportMetric(100*rep.Effective, "effective%")
			b.ReportMetric(100*rep.Partial, "partial%")
			b.ReportMetric(100*rep.Total, "total%")
		})
	}
}

// BenchmarkFigure8 runs instrumented APGRE and reports the share of time in
// the preprocessing ("extra computation") phases, paper Figure 8, plus the
// effective-work counters the JSON benchmark records gate on.
func BenchmarkFigure8(b *testing.B) {
	for _, name := range []string{"com-youtube", "dblp-2010", "soc-douban", "web-notredame", "web-berkstan", "usa-roadny"} {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name)
			var bd core.Breakdown
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(g, core.Options{Breakdown: &bd}); err != nil {
					b.Fatal(err)
				}
			}
			if bd.Total <= 0 {
				b.Fatal("instrumented run left Breakdown.Total unset")
			}
			b.ReportMetric(100*float64(bd.Partition+bd.AlphaBeta)/float64(bd.Total), "extra%")
			b.ReportMetric(float64(bd.TraversedArcs), "arcs")
			b.ReportMetric(float64(bd.Roots), "roots")
		})
	}
}

// BenchmarkFigure9 sweeps worker counts for APGRE and the strongest baseline
// on the dblp stand-in (paper Figure 9's scaling study).
func BenchmarkFigure9(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8, 12} {
		b.Run(fmt.Sprintf("apgre/p=%d", p), func(b *testing.B) {
			g := benchGraph(b, "dblp-2010")
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(g, core.Options{Workers: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("succs/p=%d", p), func(b *testing.B) {
			g := benchGraph(b, "dblp-2010")
			for i := 0; i < b.N; i++ {
				if _, err := BetweennessCentrality(g, Options{Algorithm: AlgoSuccs, Workers: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure10 sweeps APGRE worker counts to 32 on the two largest
// stand-ins (paper Figure 10's four-socket scaling).
func BenchmarkFigure10(b *testing.B) {
	for _, name := range []string{"wiki-talk", "com-youtube"} {
		for _, p := range []int{1, 4, 16, 32} {
			b.Run(fmt.Sprintf("%s/p=%d", name, p), func(b *testing.B) {
				g := benchGraph(b, name)
				for i := 0; i < b.N; i++ {
					if _, err := core.Compute(g, core.Options{Workers: p}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationThreshold sweeps Algorithm 1's merge threshold
// (DESIGN.md's first ablation: granularity vs articulation count).
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []int{2, 16, 64, 512, 4096} {
		b.Run(fmt.Sprintf("t=%d", th), func(b *testing.B) {
			g := benchGraph(b, "com-youtube")
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(g, core.Options{Threshold: th}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGamma isolates total-redundancy elimination's
// contribution.
func BenchmarkAblationGamma(b *testing.B) {
	for _, name := range []string{"email-euall", "soc-douban"} {
		for _, off := range []bool{false, true} {
			label := "on"
			if off {
				label = "off"
			}
			b.Run(name+"/gamma="+label, func(b *testing.B) {
				g := benchGraph(b, name)
				for i := 0; i < b.N; i++ {
					if _, err := core.Compute(g, core.Options{DisableGamma: off}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExtensionCloseness compares the per-vertex BFS baseline with the
// articulation-point-accelerated closeness engine (our extension).
func BenchmarkExtensionCloseness(b *testing.B) {
	for _, name := range []string{"email-enron", "usa-roadny"} {
		b.Run(name+"/exact", func(b *testing.B) {
			g := benchGraph(b, name)
			for i := 0; i < b.N; i++ {
				closeness.Exact(g, 0)
			}
		})
		b.Run(name+"/decomposed", func(b *testing.B) {
			g := benchGraph(b, name)
			for i := 0; i < b.N; i++ {
				if _, err := closeness.Decomposed(g, closeness.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionWeighted measures weighted APGRE against Dijkstra-Brandes.
func BenchmarkExtensionWeighted(b *testing.B) {
	base := benchGraph(b, "com-youtube")
	g := gen.WithRandomWeights(base, 9, 1)
	b.Run("dijkstra-brandes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			brandes.Serial(g)
		}
	})
	b.Run("weighted-apgre", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Compute(g, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
