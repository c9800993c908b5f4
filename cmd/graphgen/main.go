// Command graphgen generates synthetic graphs and writes them to disk.
//
//	graphgen -type social -n 10000 -avgdeg 6 -communities 40 -leaf 0.3 -o g.txt
//	graphgen -type road -rows 100 -cols 100 -o road.bin
//	graphgen -dataset wiki-talk -scale 0.5 -o wiki.txt
//
// The streamed generators build multi-million-edge graphs chunk-parallel
// without ever materializing an edge list (see internal/gen's Stream):
//
//	graphgen -type rmat-stream -rmatscale 20 -k 8 -workers 8 -o big.bin
//	graphgen -type composite -cores 8 -rmatscale 17 -k 8 -periph 0.25 -chain 4 -o comp.bin
//
// -census appends the articulation-point/BCC census of the emitted graph
// (the same JSON as `bcstats -json`) so a generated family can be verified
// against its intended structure; -censusout writes it to a file instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
)

func main() {
	var (
		typ       = flag.String("type", "", "generator: social|web|road|er|ba|rmat|rmat-stream|composite|grid|tree|star|path|cycle|caveman")
		dataset   = flag.String("dataset", "", "named dataset stand-in instead of -type")
		scale     = flag.Float64("scale", 1.0, "dataset scale")
		out       = flag.String("o", "", "output file (.txt edge list or .bin CSR)")
		format    = flag.String("format", "", "output format override")
		n         = flag.Int("n", 1000, "vertex count")
		m         = flag.Int64("m", 4000, "edge count (er)")
		k         = flag.Int("k", 3, "attachment/edge factor (ba, rmat, rmat-stream, composite)")
		avgdeg    = flag.Int("avgdeg", 6, "average degree (social, web)")
		comms     = flag.Int("communities", 16, "community/site count (social, web)")
		topShare  = flag.Float64("top", 0.5, "top community share (social)")
		leaf      = flag.Float64("leaf", 0.2, "degree-1 leaf fraction (social, web)")
		directed  = flag.Bool("directed", false, "directed output (social, er, rmat, rmat-stream, composite)")
		recip     = flag.Float64("reciprocity", 0.5, "directed reciprocity (social)")
		rows      = flag.Int("rows", 50, "grid rows (road, grid)")
		cols      = flag.Int("cols", 50, "grid cols (road, grid)")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallel generation workers for streamed types (0 = GOMAXPROCS)")
		rmatScale = flag.Int("rmatscale", 16, "rmat-stream: log2 vertex count; composite: log2 core vertex count")
		cores     = flag.Int("cores", 8, "composite: number of power-law cores")
		periph    = flag.Float64("periph", 0.25, "composite: fraction of vertices in the chain periphery")
		chain     = flag.Int("chain", 4, "composite: chain length (vertices per periphery chain)")
		census    = flag.Bool("census", false, "print the emitted graph's AP/BCC census as JSON")
		censusOut = flag.String("censusout", "", "write the census JSON to this file instead of stdout")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -o FILE is required")
		os.Exit(2)
	}

	var g *graph.Graph
	switch {
	case *dataset != "":
		ds, err := datasets.ByName(*dataset)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
			os.Exit(1)
		}
		g = ds.Build(*scale)
	default:
		switch *typ {
		case "social":
			g = gen.SocialLike(gen.SocialParams{N: *n, AvgDeg: *avgdeg, Communities: *comms,
				TopShare: *topShare, LeafFrac: *leaf, Directed: *directed, Reciprocity: *recip, Seed: *seed})
		case "web":
			g = gen.WebLike(gen.WebParams{N: *n, Sites: *comms, AvgDeg: *avgdeg, LeafFrac: *leaf, Seed: *seed})
		case "road":
			g = gen.RoadLike(gen.RoadParams{Rows: *rows, Cols: *cols, DeleteFrac: 0.1,
				SpurFrac: 0.1, SpurLen: 3, Seed: *seed})
		case "er":
			g = gen.ErdosRenyi(*n, *m, *directed, *seed)
		case "ba":
			g = gen.BarabasiAlbert(*n, *k, *seed)
		case "rmat":
			scalePow := 1
			for 1<<scalePow < *n {
				scalePow++
			}
			g = gen.RMAT(scalePow, *k, 0.57, 0.19, 0.19, *directed, *seed)
		case "rmat-stream":
			g = gen.BuildCSR(gen.RMATStream(*rmatScale, *k, 0.57, 0.19, 0.19, *directed, *seed), *workers)
		case "composite":
			g = gen.BuildCSR(gen.CompositeStream(gen.CompositeParams{
				Cores: *cores, CoreScale: *rmatScale, EdgeFactor: *k,
				A: 0.57, B: 0.19, C: 0.19,
				PeriphFrac: *periph, ChainLen: *chain,
				Directed: *directed, Seed: *seed,
			}), *workers)
		case "grid":
			g = gen.Grid2D(*rows, *cols)
		case "tree":
			g = gen.Tree(*n, *seed)
		case "star":
			g = gen.Star(*n)
		case "path":
			g = gen.Path(*n)
		case "cycle":
			g = gen.Cycle(*n)
		case "caveman":
			g = gen.Caveman(*comms, *n/max(1, *comms), false)
		default:
			fmt.Fprintf(os.Stderr, "graphgen: unknown -type %q\n", *typ)
			os.Exit(2)
		}
	}

	if err := graphio.SaveFile(*out, *format, g); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %v to %s\n", g, *out)

	if *census || *censusOut != "" {
		if err := emitCensus(g, *out, *censusOut); err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: census: %v\n", err)
			os.Exit(1)
		}
	}
}

// emitCensus decomposes the emitted graph and prints/writes the same census
// JSON as `bcstats -json`, so the generated family's AP/BCC structure can be
// checked against what the generator promised. The redundancy analysis runs
// sampled (it would otherwise cost a full sweep per source on a
// multi-million-edge graph).
func emitCensus(g *graph.Graph, name, path string) error {
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		return err
	}
	c := core.BuildCensus(name, g, d, core.CensusOptions{RedundancySampleK: 64})
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path != "" {
		return os.WriteFile(path, data, 0o644)
	}
	_, err = os.Stdout.Write(data)
	return err
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
