package core

import (
	"errors"
	"testing"

	"repro/internal/brandes"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
)

// fuzzEdges flattens g's edge list into the byte pairs
// FuzzIncrementalMatchesBrandes reads a graph from.
func fuzzEdges(g *graph.Graph) []byte {
	var b []byte
	for _, e := range g.Edges() {
		b = append(b, byte(e.From), byte(e.To))
	}
	return b
}

// fuzzGraphEdges is the inverse both fuzz targets read a graph with: byte
// pairs (u, v) taken mod n, self-loops dropped, at most max edges.
func fuzzGraphEdges(b []byte, n, max int) []graph.Edge {
	var es []graph.Edge
	for i := 0; i+1 < len(b) && len(es) < max; i += 2 {
		if u, v := graph.V(int(b[i])%n), graph.V(int(b[i+1])%n); u != v {
			es = append(es, graph.Edge{From: u, To: v})
		}
	}
	return es
}

// hubbed returns the fuzz targets' encoding of shape with a star planted on
// it, as a graph of n vertices: shape's edges, then one from vertex n-1 to
// every other vertex, shape's own and the ones n adds (read as directed, an
// arc out to each). Read as directed the graph always has a sub-graph with a
// hub — a vertex of at least eight times the mean swept out-degree, which
// decompose relabels — since the spokes fold nowhere and add no out-arc; read
// as undirected it has one when shape is sparse and wide enough that n-1 is
// eight times the mean (the vertices n adds are leaves of the hub and fold).
func hubbed(shape *graph.Graph, n int) []byte {
	b := fuzzEdges(shape)
	for v := 0; v < n-1; v++ {
		b = append(b, byte(n-1), byte(v))
	}
	return b
}

// seedRelabels fails the seeding unless the graph of n vertices a fuzz target
// decodes from edges, read as directed or not, has a relabelled sub-graph at
// threshold th: the seed is there to put one in front of the oracle.
func seedRelabels(f *testing.F, edges []byte, n int, directed bool, th int) {
	f.Helper()
	d, err := decompose.Decompose(graph.NewFromEdges(n, fuzzGraphEdges(edges, n, 4*n), directed),
		decompose.Options{Threshold: th})
	if err != nil {
		f.Fatal(err)
	}
	for _, sg := range d.Subgraphs {
		if sg.Relabelled() {
			return
		}
	}
	f.Fatalf("seed of %d vertices, directed %v: no sub-graph is relabelled", n, directed)
}

// FuzzIncrementalMatchesBrandes is ROADMAP 5(i)'s incremental half: a small
// graph, a directed bit, a threshold and a script of edge toggles, with the
// engine held to serial Brandes and to a fresh Compute after every op
// (assertIncMatches). Endpoints are drawn with a bias towards degree-1
// vertices of the current graph, because those are the ones whose rows are
// folded out of a sub-graph and must come back for the edit. th's top bit
// puts every sweep through the lane kernel (lanesForFuzz); assertIncMatches'
// fresh engine is scalar, so the two kernels meet bit for bit after every op.
//
// Encoding: n = 2 + nb%23 vertices; edges is byte pairs (u, v) taken mod n,
// self-loops dropped; each op is two script bytes, and a byte with its top bit
// set picks the (b mod k)-th of the k degree-1 vertices when there is one; th
// is the threshold (mod 8, plus 1) with the lane bit on top.
func FuzzIncrementalMatchesBrandes(f *testing.F) {
	caterpillar := graph.NewFromEdges(9, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3},
		{From: 0, To: 4}, {From: 1, To: 5}, {From: 1, To: 6}, {From: 2, To: 7}, {From: 3, To: 8},
	}, false)
	for _, g := range []*graph.Graph{gen.Star(8), gen.Path(7), caterpillar, gen.Path(2), gen.Lollipop(4, 3)} {
		for _, directed := range []bool{false, true} {
			for _, th := range []byte{2, 0x82} {
				f.Add(byte(g.NumVertices()-2), directed, th, fuzzEdges(g),
					[]byte{0x80, 0x81, 0x80, 1, 0x82, 0x80, 0, 0x83, 0x81, 0x80, 2, 3, 0x80, 0x81})
			}
		}
	}
	// The same shapes under a planted star, on the 24 vertices the encoding
	// allows: read as directed every epoch has a sub-graph with a hub, laid
	// out by decompose's relabel and not in input order, and the toggles move
	// its spokes. (An undirected hub needs more than 24 vertices; those seeds
	// just run.)
	for _, g := range []*graph.Graph{gen.Star(8), gen.Path(7), caterpillar, gen.Lollipop(4, 3)} {
		edges := hubbed(g, 24)
		seedRelabels(f, edges, 24, true, 3)
		for _, directed := range []bool{false, true} {
			for _, th := range []byte{2, 0x82} {
				f.Add(byte(22), directed, th, edges,
					[]byte{0x80, 0x81, 23, 1, 0x82, 23, 0, 0x83, 23, 5, 2, 3, 0x80, 23})
			}
		}
	}
	f.Fuzz(func(t *testing.T, nb byte, directed bool, th byte, edges, script []byte) {
		n := 2 + int(nb)%23
		if len(script) > 64 {
			script = script[:64]
		}
		opt := Options{Threshold: 1 + int(th)%8}
		if th&0x80 != 0 {
			opt.RootEngine = lanesForFuzz(t)
		}
		inc, err := NewIncremental(graph.NewFromEdges(n, fuzzGraphEdges(edges, n, 4*n), directed), opt)
		if err != nil {
			t.Fatal(err)
		}
		assertIncMatches(t, inc, "initial")
		pick := func(b byte) graph.V {
			g := inc.Graph()
			if b&0x80 != 0 {
				var leaves []graph.V
				for v := graph.V(0); int(v) < n; v++ {
					deg := g.OutDegree(v)
					if directed {
						deg += g.InDegree(v)
					}
					if deg == 1 {
						leaves = append(leaves, v)
					}
				}
				if len(leaves) > 0 {
					return leaves[int(b&0x7f)%len(leaves)]
				}
			}
			return graph.V(int(b) % n)
		}
		for i := 0; i+1 < len(script); i += 2 {
			u, v := pick(script[i]), pick(script[i+1])
			if u == v {
				continue
			}
			if err := toggle(inc, u, v); err != nil {
				t.Fatalf("op %d (%d,%d): %v", i/2, u, v, err)
			}
			assertIncMatches(t, inc, "after op")
		}
	})
}

// EstimateFullBudget returns approx.Estimate's scores at a pivot budget of
// every vertex. internal/approx imports core, so FuzzComputeMatchesBrandes
// cannot call it directly: the external test package sets it
// (approx_fuzz_test.go).
var EstimateFullBudget func(g *graph.Graph, workers, threshold int, seed int64) ([]float64, error)

// lanesForFuzz puts fuzz-sized sub-graphs within the lane kernel's reach for
// the rest of the test — any swept graph of two vertices, any root range — and
// returns the engine value that lifts the budget on top.
func lanesForFuzz(t *testing.T) RootEngine {
	setKernelRule(t, laneBudget, 2, 1)
	return EngineMSBFS
}

// FuzzComputeMatchesBrandes is ROADMAP 5(i)'s batch half: a small graph, a
// directed bit, a threshold, DisableGamma, one or two workers, a kernel,
// weights and a root budget, with Compute held to serial Brandes and to the
// scalar kernel at the same worker count bit for bit, and the scalar sweep's
// three direction modes — the rule, pull only, every level bottom-up and
// pushing — held to each other bit for bit. hybridMinVerts and hybridMinDegree
// are lowered for the run so that sub-graphs this size and this sparse take
// bottom-up and push levels under the rule at all, and the serial guard
// dropped so that the second worker is real.
//
// A weighted graph is swept with Dijkstra, so it is held to brandes.Serial
// (Dijkstra-Brandes on it) and to the scalar run only: there is no lane kernel
// or direction mode to compare. A budgeted run's scores are a prefix of the
// roots' contributions, not BC, so it is held to the scalar kernel bit for bit
// and, when the budget covers every root, to the unbudgeted run. The
// estimator at a pivot budget of every vertex is held to the scalar kernel at
// one worker bit for bit, which is approx's TestExactBudgetBitMatch claim.
//
// Past float64's path counts nothing is compared but the refusal: when serial
// Brandes returns graph.ErrPathCountOverflow, Compute, the scalar kernel, a
// budgeted run and the estimator must too, and Compute may return it on no
// other graph.
//
// Encoding: n = 2 + nb%47 vertices; edges is byte pairs (u, v) taken mod n,
// self-loops dropped; threshold 1 + th%8; flags bit 0 directed, bit 1
// DisableGamma, bit 2 a second worker, bit 3 the lane kernel for every
// unweighted sweep (lanesForFuzz), bit 4 integer weights in [1, 4]
// (gen.WithRandomWeights, seeded by th), bit 5 a RootBudget of 1 + th/8, bit 6
// on unweighted graphs approx.Estimate with Pivots = n (seeded by th), bit 7 on
// unweighted graphs a second component beside those n vertices: the ladder of
// overflow_test.go, 1,024 + th%77 layers long, whose σ reach +Inf.
func FuzzComputeMatchesBrandes(f *testing.F) {
	oldMin, oldDeg, oldCut := hybridMinVerts, hybridMinDegree, dynamicSerialCutoff
	hybridMinVerts, hybridMinDegree, dynamicSerialCutoff = 2, 0, 0
	f.Cleanup(func() { hybridMinVerts, hybridMinDegree, dynamicSerialCutoff = oldMin, oldDeg, oldCut })
	for _, g := range []*graph.Graph{gen.Star(8), gen.Path(7), gen.Lollipop(5, 4), gen.Caveman(3, 5, false),
		gen.Grid2D(5, 5), gen.ErdosRenyi(40, 160, false, 3)} {
		for flags := byte(0); flags < 128; flags++ {
			f.Add(byte(g.NumVertices()-2), flags, byte(2), fuzzEdges(g))
			if flags&32 != 0 { // a budget of 32: every root of the smaller shapes
				f.Add(byte(g.NumVertices()-2), flags, byte(250), fuzzEdges(g))
			}
		}
	}
	// Sub-graphs with a hub, which decompose lays out hubs first and not in
	// input order: a wheel, a fan and a lattice under an apex have one read
	// either way, the caveman under a planted star read as directed. Every
	// kernel, direction mode and worker count above must hold on that layout
	// too, and the weighted copies' Dijkstra sweeps.
	for _, c := range []struct {
		shape      *graph.Graph
		n          int
		undirected bool // the hub is one read as undirected too
	}{{gen.Cycle(40), 41, true}, {gen.Path(40), 41, true}, {gen.Grid2D(5, 9), 46, true}, {gen.Caveman(3, 5, false), 47, false}} {
		edges := hubbed(c.shape, c.n)
		seedRelabels(f, edges, c.n, true, 3)
		if c.undirected {
			seedRelabels(f, edges, c.n, false, 3)
		}
		for flags := byte(0); flags < 32; flags++ {
			f.Add(byte(c.n-2), flags, byte(2), edges)
			f.Add(byte(c.n-2), flags|64, byte(2), edges)
		}
	}
	for _, flags := range []byte{0, 1 | 32, 2 | 4 | 8 | 64} {
		f.Add(byte(5), flags|128, byte(2), fuzzEdges(gen.Path(7)))
	}
	f.Fuzz(func(t *testing.T, nb, flags, th byte, edges []byte) {
		n := 2 + int(nb)%47
		directed, disableGamma, workers := flags&1 != 0, flags&2 != 0, 1+int(flags>>2&1)
		weighted, budgeted := flags&16 != 0, flags&32 != 0
		es, nv := fuzzGraphEdges(edges, n, 6*n), n
		if flags&128 != 0 && !weighted {
			layers := 1024 + int(th)%77
			for _, e := range ladder(layers, false) {
				es = append(es, graph.Edge{From: e.From + graph.V(n), To: e.To + graph.V(n)})
			}
			nv += 2*layers + 2
		}
		g := graph.NewFromEdges(nv, es, directed)
		if weighted {
			g = gen.WithRandomWeights(g, 4, int64(th))
		}
		opt := Options{Workers: workers, Threshold: 1 + int(th)%8, DisableGamma: disableGamma}
		if flags&8 != 0 && !weighted {
			opt.RootEngine = lanesForFuzz(t)
		}
		var full Breakdown
		opt.Breakdown = &full
		got, err := Compute(g, opt)
		want, werr := serialOracle(g)
		if errors.Is(werr, graph.ErrPathCountOverflow) {
			refusesOverflow(t, g, opt, err, budgeted, flags&64 != 0 && !weighted, int64(th))
			return
		}
		if err != nil || werr != nil {
			t.Fatal(err, werr)
		}
		opt.Breakdown = nil
		bcBitsEqual(t, "Compute vs the scalar kernel", computeScalar(t, g, opt), got)
		if budgeted {
			opt.RootBudget = 1 + int(th)/8
			part, err := Compute(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			bcBitsEqual(t, "budgeted Compute vs the scalar kernel", computeScalar(t, g, opt), part)
			if int64(opt.RootBudget) >= full.Roots {
				bcBitsEqual(t, "a budget covering every root vs none", got, part)
			}
		}
		if weighted {
			if i, ok := bcClose(want, got, 1e-9); !ok {
				t.Fatalf("Compute differs from weighted Brandes at vertex %d: %v", i, got[i])
			}
			return
		}
		if i, ok := bcClose(want, got, 1e-9); !ok {
			t.Fatalf("Compute differs from Brandes at vertex %d: %v", i, got[i])
		}
		if flags&64 != 0 {
			est, err := EstimateFullBudget(g, workers, opt.Threshold, int64(th))
			if err != nil {
				t.Fatal(err)
			}
			bcBitsEqual(t, "approx at full budget vs the scalar kernel",
				computeScalar(t, g, Options{Workers: 1, Threshold: opt.Threshold}), est)
		}
		d, err := decompose.Decompose(g, decompose.Options{Threshold: opt.Threshold, DisableGamma: disableGamma})
		if err != nil {
			t.Fatal(err)
		}
		rule, _ := sweepForced(t, d, dirAuto)
		pull, _ := sweepForced(t, d, dirTopDown)
		push, _ := sweepForced(t, d, dirBottomUp)
		bcBitsEqual(t, "rule vs pull only", rule, pull)
		bcBitsEqual(t, "rule vs forced push", rule, push)
		if workers == 1 { // the drain sweepForced replays
			bcBitsEqual(t, "Compute vs rule", got, rule)
		}
	})
}

// serialOracle is brandes' serial Brandes with its error: the overflow it
// reports, instead of panicking as brandes.Serial does.
func serialOracle(g *graph.Graph) ([]float64, error) {
	for _, b := range brandes.Baselines {
		if b.Name == "serial" {
			return b.Run(g, 1)
		}
	}
	panic("brandes.Baselines has no serial")
}

// refusesOverflow holds every engine the fuzz target runs to the refusal
// serial Brandes gave g: Compute's err, the scalar kernel, a budgeted run (its
// prefix of a sub-graph's roots is never empty, and the ladder's first root is
// an apex, which reaches the other over 2^layers paths) and the estimator at
// full budget.
func refusesOverflow(t *testing.T, g *graph.Graph, opt Options, err error, budgeted, estimate bool, th int64) {
	t.Helper()
	opt.Breakdown = nil
	var scalar error
	scalarOnly(func() {
		_, scalar = Compute(g, Options{Workers: opt.Workers, Threshold: opt.Threshold, DisableGamma: opt.DisableGamma})
	})
	errs := map[string]error{"Compute": err, "the scalar kernel": scalar}
	if budgeted {
		opt.RootBudget = 1 + int(th)/8
		_, errs["a budgeted Compute"] = Compute(g, opt)
	}
	if estimate {
		_, errs["approx at full budget"] = EstimateFullBudget(g, opt.Workers, opt.Threshold, th)
	}
	for name, err := range errs {
		if !errors.Is(err, graph.ErrPathCountOverflow) {
			t.Fatalf("serial Brandes overflows, %s returned %v", name, err)
		}
	}
}
