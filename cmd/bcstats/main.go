// Command bcstats prints the articulation-point census and decomposition
// profile of a graph — the measurements behind the paper's Figure 2
// motivation and Table 4.
//
//	bcstats -dataset wiki-talk -scale 0.25
//	bcstats -in graph.txt -directed
//	bcstats -dataset email-enron -json
//
// With -json the census is emitted as the same metrics.GraphCensus document
// the bcd daemon serves at GET /v1/graphs/{name}/stats, so scripted pipelines
// can consume either source interchangeably.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/metrics"
)

func main() {
	var (
		in       = flag.String("in", "", "graph file (edge list, .gr, or .bin)")
		format   = flag.String("format", "", "input format override")
		directed = flag.Bool("directed", false, "treat edge-list input as directed")
		dataset  = flag.String("dataset", "", "named synthetic dataset instead of a file")
		scale    = flag.Float64("scale", 0.25, "dataset scale")
		thresh   = flag.Int("threshold", 0, "decomposition threshold")
		sample   = flag.Int("sample", 0, "sample this many sources for the redundancy analysis (0 = exact)")
		asJSON   = flag.Bool("json", false, "emit the census as JSON instead of text")
	)
	flag.Parse()

	g, name, err := load(*in, *format, *directed, *dataset, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcstats: %v\n", err)
		os.Exit(1)
	}
	d, err := decompose.Decompose(g, decompose.Options{Threshold: *thresh})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcstats: %v\n", err)
		os.Exit(1)
	}
	c := core.BuildCensus(name, g, d, core.CensusOptions{RedundancySampleK: *sample})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c); err != nil {
			fmt.Fprintf(os.Stderr, "bcstats: %v\n", err)
			os.Exit(1)
		}
		return
	}
	renderText(os.Stdout, g, c)
}

// renderText prints the human-readable census from the same GraphCensus
// document -json serializes, so the two outputs cannot drift apart.
func renderText(w *os.File, g *graph.Graph, c metrics.GraphCensus) {
	fmt.Fprintf(w, "graph %s: %v\n", c.Graph, g)
	fmt.Fprintf(w, "degree: min=%d max=%d mean=%.2f isolated=%d\n",
		c.Degree.Min, c.Degree.Max, c.Degree.Mean, c.Degree.Isolated)
	fmt.Fprintf(w, "articulation points: %d (%.1f%%)\n",
		c.ArticulationPoints, 100*float64(c.ArticulationPoints)/float64(max(1, c.Verts)))
	fmt.Fprintf(w, "single-edge vertices: %d (%.1f%%), no-in single-out sources: %d\n",
		c.SingleEdgeVertices, 100*float64(c.SingleEdgeVertices)/float64(max(1, c.Verts)), c.Degree.Sources)
	if c.SCC != nil {
		fmt.Fprintf(w, "strongly connected components: %d (largest %d vertices)\n",
			c.SCC.Count, c.SCC.Largest)
	}

	fmt.Fprintf(w, "\ndecomposition (threshold=%d): %d sub-graphs, %d boundary APs, %d roots of %d vertices\n",
		c.Decomposition.Threshold, c.Decomposition.Subgraphs,
		c.Decomposition.BoundaryAPs, c.Decomposition.Roots, c.Verts)
	t := &metrics.Table{Title: "largest sub-graphs", Headers: []string{"rank", "verts", "swept arcs", "V share", "swept", "max deg", "mean deg", "local ids", "sweep", "kernel"}}
	for i, sg := range c.Decomposition.Largest {
		layout := "id order"
		if sg.Relabelled {
			layout = "hubs first"
		}
		sweep := "top-down"
		if sg.Hybrid {
			sweep = "hybrid"
		}
		kernel := "scalar"
		if sg.Lanes {
			kernel = "lanes"
		}
		t.AddRow(i+1, sg.Verts, sg.Arcs, metrics.Percent(sg.VertShare), sg.Swept, sg.MaxDegree, fmt.Sprintf("%.1f", sg.MeanDegree), layout, sweep, kernel)
	}
	t.Render(w)

	if r := c.Redundancy; r != nil {
		fmt.Fprintf(w, "\nredundancy (%s): effective=%s partial=%s total=%s\n",
			r.Method, metrics.Percent(r.Effective), metrics.Percent(r.Partial), metrics.Percent(r.Total))
	}
}

func load(in, format string, directed bool, dataset string, scale float64) (*graph.Graph, string, error) {
	switch {
	case dataset != "":
		ds, err := datasets.ByName(dataset)
		if err != nil {
			return nil, "", err
		}
		return ds.Build(scale), ds.Name, nil
	case in != "":
		g, err := graphio.LoadFile(in, format, directed)
		return g, in, err
	default:
		return nil, "", fmt.Errorf("need -in FILE or -dataset NAME (one of %v)", datasets.Names())
	}
}
