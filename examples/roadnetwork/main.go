// Road-network analysis: rank intersections by betweenness to find the
// corridors most traffic must pass through (the transportation use case the
// paper cites [4]), and compare the exact APGRE result with a 5 % pivot
// sample of the same decomposition (the sampling trade-off prior GPU work
// made).
//
//	go run ./examples/roadnetwork
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro"
)

func main() {
	// A city grid with closed streets (deleted edges) and dead-end spurs.
	g := repro.GenerateRoad(repro.RoadParams{
		Rows: 70, Cols: 70,
		DeleteFrac: 0.10,
		SpurFrac:   0.12,
		SpurLen:    3,
		Seed:       11,
	})
	fmt.Printf("road network: %v\n", g)

	start := time.Now()
	exact, err := repro.BetweennessCentrality(g, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact APGRE: %v\n", time.Since(start))

	start = time.Now()
	res, err := repro.ApproximateBC(g, repro.ApproxOptions{Pivots: g.NumVertices() / 20, Seed: 3}) // 5% sample
	if err != nil {
		log.Fatal(err)
	}
	approx := res.BC
	fmt.Printf("5%% sampling: %v (%d pivots)\n", time.Since(start), res.Pivots)

	topExact := repro.TopK(exact, 10)
	fmt.Println("\nbusiest intersections (exact):")
	for i, vs := range topExact {
		fmt.Printf("%2d. intersection %-6d load=%.0f\n", i+1, vs.Vertex, vs.Score)
	}

	// How well does sampling find the same set? (Recall@10 — the trade-off
	// exact APGRE removes.)
	approxTop := map[repro.V]bool{}
	for _, vs := range repro.TopK(approx, 10) {
		approxTop[vs.Vertex] = true
	}
	hits := 0
	for _, vs := range topExact {
		if approxTop[vs.Vertex] {
			hits++
		}
	}
	fmt.Printf("\nsampling recall@10 vs exact: %d/10\n", hits)

	// Spread of load across the network: percentile summary.
	sorted := append([]float64(nil), exact...)
	sort.Float64s(sorted)
	q := func(p float64) float64 { return sorted[int(p*float64(len(sorted)-1))] }
	fmt.Printf("load percentiles: p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
		q(0.5), q(0.9), q(0.99), sorted[len(sorted)-1])

	// Real roads have lengths: attach travel times and recompute with the
	// weighted APGRE engine (Dijkstra sweeps over the same decomposition).
	wg := repro.AttachRandomWeights(g, 9, 5)
	start = time.Now()
	weighted, err := repro.BetweennessCentrality(wg, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nweighted (travel-time) APGRE: %v\n", time.Since(start))
	moved := 0
	weightedTop := map[repro.V]bool{}
	for _, vs := range repro.TopK(weighted, 10) {
		weightedTop[vs.Vertex] = true
	}
	for _, vs := range topExact {
		if !weightedTop[vs.Vertex] {
			moved++
		}
	}
	fmt.Printf("travel times displace %d of the top-10 hop-count intersections\n", moved)
}
