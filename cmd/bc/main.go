// Command bc computes centrality for a graph file and prints the top-scoring
// vertices.
//
//	bc -in graph.txt -algo apgre -top 20
//	bc -in road.gr -format dimacs -algo succs -workers 8
//	bc -in roads.txt -weighted -top 10          # Dijkstra-based APGRE
//	bc -in graph.txt -approx -pivots 512        # sampled BC, fixed budget
//	bc -in graph.txt -approx -eps 0.01          # sampled BC, adaptive accuracy
//	bc -in graph.txt -metric closeness
//	bc -in big.bin -mmap -top 20                # mmap the CSR instead of copying it
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/graphio"
	"repro/internal/metrics"
	"repro/internal/profiling"
)

func main() {
	var (
		in         = flag.String("in", "", "graph file (edge list, .gr, .graphml, .json or .bin)")
		format     = flag.String("format", "", "input format override")
		directed   = flag.Bool("directed", false, "treat edge-list input as directed")
		weighted   = flag.Bool("weighted", false, "read edge weights (3rd column / DIMACS arc weights; GraphML and JSON carry their own)")
		useMmap    = flag.Bool("mmap", false, "memory-map binary input (zero-copy adjacency when supported)")
		metric     = flag.String("metric", "bc", "metric: bc|closeness")
		algo       = flag.String("algo", "apgre", "algorithm: apgre|serial|preds|succs|locksyncfree|async|hybrid")
		workers    = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		topK       = flag.Int("top", 10, "print the top-K entries")
		thresh     = flag.Int("threshold", 0, "APGRE decomposition threshold")
		approxMode = flag.Bool("approx", false, "estimate BC from sampled pivots (decomposition-aware)")
		pivots     = flag.Int("pivots", 0, "approx: fixed pivot budget (>= n reproduces exact BC)")
		eps        = flag.Float64("eps", 0, "approx: adaptive mode, target CI half-width on normalized BC")
		seed       = flag.Int64("seed", 1, "approx: sampling seed")
		verbose    = flag.Bool("v", false, "print APGRE phase breakdown")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "bc: -in FILE is required")
		os.Exit(2)
	}
	if *topK < 0 {
		fmt.Fprintf(os.Stderr, "bc: -top must be >= 0, got %d\n", *topK)
		os.Exit(2)
	}
	baseline := *algo != string(repro.AlgoAPGRE)
	if *metric == "closeness" && (*approxMode || baseline || *verbose || *thresh != 0) {
		fmt.Fprintln(os.Stderr, "bc: -metric closeness takes none of -approx, -v, -threshold or an -algo other than apgre")
		os.Exit(2)
	}
	if *approxMode && (baseline || *verbose) {
		fmt.Fprintln(os.Stderr, "bc: -approx takes neither -v nor an -algo other than apgre")
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !*approxMode && (set["pivots"] || set["eps"] || set["seed"]) {
		fmt.Fprintln(os.Stderr, "bc: -pivots, -eps and -seed apply to -approx only")
		os.Exit(2)
	}
	if *pivots > 0 && *eps > 0 {
		fmt.Fprintln(os.Stderr, "bc: -approx takes one of -pivots (a fixed budget) or -eps (an accuracy target), not both")
		os.Exit(2)
	}
	if baseline && (*verbose || *thresh != 0) {
		fmt.Fprintln(os.Stderr, "bc: -v and -threshold apply to -algo apgre only; the baselines do not decompose")
		os.Exit(2)
	}

	// ids names each vertex as an edge-list input does; nil means the
	// format's ids are already dense.
	var g *repro.Graph
	var ids []int64
	if *useMmap {
		if *weighted || (*format != "" && *format != "bin") {
			fmt.Fprintln(os.Stderr, "bc: -mmap requires unweighted binary (.bin) input")
			os.Exit(2)
		}
		mg, err := graphio.MmapGraph(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bc: %v\n", err)
			os.Exit(1)
		}
		// The mapping must outlive every sweep over the adjacency; this is a
		// one-shot CLI, so unmapping at process exit (never) is fine, but keep
		// the Close for symmetry with long-lived embedders like bcd.
		defer mg.Close()
		g = mg.Graph
		mode := "copied (fallback)"
		if mg.ZeroCopy {
			mode = "zero-copy"
		}
		fmt.Printf("loaded %v (mmap, %s)\n", g, mode)
	} else {
		var err error
		g, ids, err = graphio.Load(*in, *format, *directed, *weighted)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %v\n", g)
	}

	prof, err := profiling.Start(*cpuprofile, *memprofile, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bc: %v\n", err)
		os.Exit(1)
	}

	switch *metric {
	case "bc":
		if *approxMode {
			runApproxBC(g, ids, *workers, *thresh, *topK, *pivots, *eps, *seed)
			break
		}
		runBC(g, ids, *algo, *workers, *thresh, *topK, *verbose)
	case "closeness":
		runCloseness(g, ids, *workers, *topK)
	default:
		prof.Stop()
		fmt.Fprintf(os.Stderr, "bc: unknown -metric %q\n", *metric)
		os.Exit(2)
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "bc: profiling: %v\n", err)
		os.Exit(1)
	}
}

// vertexName is v as the input file names it.
func vertexName(ids []int64, v repro.V) int64 {
	if ids == nil {
		return int64(v)
	}
	return ids[v]
}

func runBC(g *repro.Graph, ids []int64, algo string, workers, thresh, topK int, verbose bool) {
	var bd repro.Breakdown
	opt := repro.Options{
		Algorithm: repro.Algorithm(algo),
		Workers:   workers,
		Threshold: thresh,
	}
	if verbose {
		opt.Breakdown = &bd
	}
	start := time.Now()
	bc, err := repro.BetweennessCentrality(g, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bc: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Printf("%s finished in %s (%s MTEPS)\n", algo,
		metrics.FormatDuration(elapsed), metrics.FormatMTEPS(metrics.MTEPS(g.NumVertices(), g.NumEdges(), elapsed)))
	if verbose {
		fmt.Printf("breakdown: partition=%s alpha/beta=%s bc(top)=%s bc(rest)=%s subgraphs=%d APs=%d roots=%d\n",
			metrics.FormatDuration(bd.Partition), metrics.FormatDuration(bd.AlphaBeta),
			metrics.FormatDuration(bd.TopBC), metrics.FormatDuration(bd.RestBC),
			bd.Subgraphs, bd.Articulations, bd.Roots)
	}
	t := &metrics.Table{Title: fmt.Sprintf("top %d vertices by betweenness", topK),
		Headers: []string{"rank", "vertex", "bc"}}
	for i, vs := range repro.TopK(bc, topK) {
		t.AddRow(i+1, vertexName(ids, vs.Vertex), vs.Score)
	}
	t.Render(os.Stdout)
}

func runApproxBC(g *repro.Graph, ids []int64, workers, thresh, topK, pivots int, eps float64, seed int64) {
	opt := repro.ApproxOptions{
		Pivots:    pivots,
		Eps:       eps,
		Seed:      seed,
		Workers:   workers,
		Threshold: thresh,
	}
	if opt.Pivots <= 0 && opt.Eps <= 0 {
		opt.Eps = 0.05
	}
	start := time.Now()
	res, err := repro.ApproximateBC(g, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bc: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	quality := fmt.Sprintf("err<=%.4g", res.ErrEstimate)
	if res.Exact {
		quality = "exact"
	}
	fmt.Printf("approx finished in %s (pivots=%d/%d, %s)\n",
		metrics.FormatDuration(elapsed), res.Pivots, res.ExactRoots, quality)
	t := &metrics.Table{Title: fmt.Sprintf("top %d vertices by approximate betweenness", topK),
		Headers: []string{"rank", "vertex", "bc"}}
	for i, vs := range repro.TopK(res.BC, topK) {
		t.AddRow(i+1, vertexName(ids, vs.Vertex), vs.Score)
	}
	t.Render(os.Stdout)
}

func runCloseness(g *repro.Graph, ids []int64, workers, topK int) {
	start := time.Now()
	res, err := repro.ClosenessCentrality(g, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bc: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("closeness finished in %s\n", metrics.FormatDuration(time.Since(start)))
	t := &metrics.Table{Title: fmt.Sprintf("top %d vertices by closeness", topK),
		Headers: []string{"rank", "vertex", "closeness", "farness"}}
	for i, vs := range repro.TopK(res.Closeness, topK) {
		t.AddRow(i+1, vertexName(ids, vs.Vertex), vs.Score, res.Farness[vs.Vertex])
	}
	t.Render(os.Stdout)
}
