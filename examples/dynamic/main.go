// Dynamic network monitoring: maintain exact betweenness centrality while a
// communication network evolves — friendships form and dissolve — using the
// incremental engine built on the paper's decomposition. Changes confined to
// one sub-graph (the overwhelmingly common case in articulation-rich
// networks) are absorbed by recomputing just that sub-graph.
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

func main() {
	g := repro.GenerateSocial(repro.SocialParams{
		N: 3000, AvgDeg: 5, Communities: 25,
		TopShare: 0.4, LeafFrac: 0.3, Seed: 21,
	})
	fmt.Printf("monitoring %v\n", g)

	start := time.Now()
	inc, err := repro.NewIncrementalBC(g, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial scores in %v\n", time.Since(start))
	report(inc, "t=0")

	// Simulate an evolving edge stream.
	r := rand.New(rand.NewSource(5))
	var applied, rebuilds int
	streamStart := time.Now()
	for applied < 30 {
		// Real friendship streams are triadic: most new edges close
		// triangles inside a community, so pick v near u most of the time.
		u := repro.V(r.Intn(g.NumVertices()))
		var v repro.V
		if nbrs := inc.Graph().Out(u); len(nbrs) > 0 && r.Float64() < 0.8 {
			hop := nbrs[r.Intn(len(nbrs))]
			if nn := inc.Graph().Out(hop); len(nn) > 0 {
				v = nn[r.Intn(len(nn))]
			} else {
				v = hop
			}
		} else {
			v = repro.V(r.Intn(g.NumVertices()))
		}
		if u == v {
			continue
		}
		before := inc.FullRebuilds()
		var opErr error
		if inc.Graph().HasArc(u, v) {
			opErr = inc.RemoveEdge(u, v)
		} else {
			opErr = inc.InsertEdge(u, v)
		}
		if opErr != nil {
			log.Fatal(opErr)
		}
		applied++
		rebuilds += inc.FullRebuilds() - before
	}
	elapsed := time.Since(streamStart)
	fmt.Printf("\napplied 30 updates in %v (%.1fms/update); %d joined two sub-graphs\n",
		elapsed, float64(elapsed.Milliseconds())/30, rebuilds)
	report(inc, "t=30")

	// Verify against a from-scratch run.
	fresh, err := repro.BetweennessCentrality(inc.Graph(), repro.Options{Algorithm: repro.AlgoSerial})
	if err != nil {
		log.Fatal(err)
	}
	maxDiff := 0.0
	got := inc.BC()
	for i := range fresh {
		d := fresh[i] - got[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max divergence from fresh recomputation: %.2e\n", maxDiff)
}

func report(inc *repro.IncrementalBC, label string) {
	top := repro.TopK(inc.BC(), 3)
	fmt.Printf("%s top brokers:", label)
	for _, vs := range top {
		fmt.Printf("  %d (%.0f)", vs.Vertex, vs.Score)
	}
	fmt.Println()
}
