package repro

import (
	"errors"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestFacadeAlgorithmsAgree(t *testing.T) {
	g := GenerateSocial(SocialParams{N: 300, AvgDeg: 5, Communities: 5,
		TopShare: 0.5, LeafFrac: 0.3, Seed: 1})
	want, err := BetweennessCentrality(g, Options{Algorithm: AlgoSerial})
	if err != nil {
		t.Fatal(err)
	}
	// The names come from brandes' table; the constants must spell them.
	if want := []Algorithm{AlgoAPGRE, AlgoSerial, AlgoPreds, AlgoSuccs, AlgoLockSyncFree, AlgoAsync, AlgoHybrid}; !slices.Equal(Algorithms(), want) {
		t.Fatalf("Algorithms() = %v, want the constants %v", Algorithms(), want)
	}
	for _, algo := range Algorithms() {
		got, err := BetweennessCentrality(g, Options{Algorithm: algo, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for v := range want {
			if math.Abs(want[v]-got[v]) > 1e-9*math.Max(1, want[v]) {
				t.Fatalf("%s differs at %d: %v vs %v", algo, v, want[v], got[v])
			}
		}
	}
	// Empty algorithm defaults to APGRE.
	if _, err := BetweennessCentrality(g, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := BetweennessCentrality(g, Options{Algorithm: "bogus"}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestAsyncDirectedRejected(t *testing.T) {
	g := GenerateErdosRenyi(30, 60, true, 1)
	if _, err := BetweennessCentrality(g, Options{Algorithm: AlgoAsync}); err == nil {
		t.Fatal("async must reject directed graphs")
	}
}

func TestTopK(t *testing.T) {
	bc := []float64{1, 5, 3, 5, 0}
	top := TopK(bc, 3)
	if len(top) != 3 {
		t.Fatalf("TopK len = %d", len(top))
	}
	if top[0].Vertex != 1 || top[1].Vertex != 3 || top[2].Vertex != 2 {
		t.Fatalf("TopK order wrong: %v", top)
	}
	if got := TopK(bc, 100); len(got) != 5 {
		t.Fatal("TopK must clamp k")
	}
	if got := TopK(bc, -1); got == nil || len(got) != 0 {
		t.Fatalf("TopK(-1) = %v, want an empty slice", got)
	}
}

func TestDecomposeAndRedundancy(t *testing.T) {
	g := GenerateSocial(SocialParams{N: 500, AvgDeg: 5, Communities: 8,
		TopShare: 0.5, LeafFrac: 0.35, Seed: 2})
	d, err := Decompose(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Subgraphs < 2 || d.ArticulationPoints < 1 || d.TopVerts <= 0 {
		t.Fatalf("decomposition shape: %+v", d)
	}
	if d.Roots >= int64(g.NumVertices()) {
		t.Fatal("expected gamma elimination on leafy graph")
	}
	r, err := AnalyzeRedundancy(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partial+r.Total <= 0 {
		t.Fatalf("no redundancy found: %+v", r)
	}
}

func TestApproximateBC(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 3, 3)
	exact, _ := BetweennessCentrality(g, Options{Algorithm: AlgoSerial})
	res, err := ApproximateBC(g, ApproxOptions{Pivots: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx := res.BC
	// Same argmax neighbourhood.
	argmax := func(x []float64) int {
		b := 0
		for i := range x {
			if x[i] > x[b] {
				b = i
			}
		}
		return b
	}
	rank := 0
	top := argmax(approx)
	for i := range exact {
		if exact[i] > exact[top] {
			rank++
		}
	}
	if rank >= 5 {
		t.Fatalf("approximation too loose: exact rank %d", rank)
	}
}

// TestApproximateBCFullBudgetIsExact: a budget covering every vertex runs
// the exact one-worker schedule, so the estimate is BetweennessCentrality's
// bit for bit.
func TestApproximateBCFullBudgetIsExact(t *testing.T) {
	g := GenerateSocial(SocialParams{N: 300, AvgDeg: 5, Communities: 5,
		TopShare: 0.5, LeafFrac: 0.3, Seed: 21})
	want, err := BetweennessCentrality(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApproximateBC(g, ApproxOptions{Pivots: g.NumVertices(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("full budget not flagged exact")
	}
	for v := range want {
		if math.Float64bits(res.BC[v]) != math.Float64bits(want[v]) {
			t.Fatalf("vertex %d: ApproximateBC %v != exact %v", v, res.BC[v], want[v])
		}
	}
}

// TestApproximateBCRejects: a weighted graph and a call that selects neither
// a budget nor an accuracy target are errors, not hop-count estimates.
func TestApproximateBCRejects(t *testing.T) {
	g := GenerateSocial(SocialParams{N: 100, AvgDeg: 4, Communities: 3,
		TopShare: 0.5, LeafFrac: 0.3, Seed: 22})
	if _, err := ApproximateBC(AttachRandomWeights(g, 5, 1), ApproxOptions{Pivots: 20}); err == nil {
		t.Fatal("weighted graph: want an error")
	}
	if _, err := ApproximateBC(g, ApproxOptions{Pivots: 0, Eps: 0}); err == nil {
		t.Fatal("Pivots <= 0 and Eps <= 0: want an error")
	}
	if _, err := ApproximateBC(g, ApproxOptions{Pivots: -3, Eps: -1}); err == nil {
		t.Fatal("negative Pivots and Eps: want an error")
	}
}

// TestNewIncrementalBCRejectsIgnoredOptions: the maintainer is APGRE's,
// serial and untimed, so an Options field it would drop is an error.
func TestNewIncrementalBCRejectsIgnoredOptions(t *testing.T) {
	g := GenerateSocial(SocialParams{N: 60, AvgDeg: 4, Communities: 3,
		TopShare: 0.5, LeafFrac: 0.3, Seed: 22})
	for _, c := range []struct {
		name string
		opt  Options
		ok   bool
	}{
		{"Algorithm serial", Options{Algorithm: AlgoSerial}, false},
		{"Workers", Options{Workers: 2}, false},
		{"Breakdown", Options{Breakdown: &Breakdown{}}, false},
		{"Algorithm apgre", Options{Algorithm: AlgoAPGRE}, true},
		{"Threshold and DisableGamma", Options{Threshold: 3, DisableGamma: true}, true},
	} {
		_, err := NewIncrementalBC(g, c.opt)
		if (err == nil) != c.ok {
			t.Errorf("%s: NewIncrementalBC returned %v, want accepted %v", c.name, err, c.ok)
		}
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := GenerateRoad(RoadParams{Rows: 10, Cols: 10, DeleteFrac: 0.1, SpurFrac: 0.1, SpurLen: 2, Seed: 4})
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, "", g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() {
		t.Fatal("round trip changed the graph")
	}
}

func TestBreakdownExposed(t *testing.T) {
	g := GenerateWeb(WebParams{N: 400, Sites: 8, AvgDeg: 8, LeafFrac: 0.2, Seed: 5})
	var bd Breakdown
	if _, err := BetweennessCentrality(g, Options{Breakdown: &bd}); err != nil {
		t.Fatal(err)
	}
	if bd.Subgraphs == 0 || bd.Total <= 0 {
		t.Fatalf("breakdown not populated: %+v", bd)
	}
}

// TestWeightedFacade: BetweennessCentrality reads a graph's weights from the
// graph. APGRE and the serial reference answer with the weighted scores of a
// first-principles oracle; the five hop-count baselines refuse, naming the
// algorithm and the weights, instead of answering with hop-count BC.
func TestWeightedFacade(t *testing.T) {
	g := AttachRandomWeights(GenerateSocial(SocialParams{N: 150, AvgDeg: 4, Communities: 5,
		TopShare: 0.5, LeafFrac: 0.3, Seed: 6}), 5, 7)
	if !g.Weighted() {
		t.Fatal("AttachRandomWeights lost weights")
	}
	want := weightedBCOracle(g)
	for _, algo := range Algorithms() {
		got, err := BetweennessCentrality(g, Options{Algorithm: algo, Workers: 2})
		if algo != AlgoAPGRE && algo != AlgoSerial {
			if err == nil || !strings.Contains(err.Error(), string(algo)) || !strings.Contains(err.Error(), "weights") {
				t.Fatalf("%s on a weighted graph: err %v, want one naming the algorithm and the weights", algo, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for v := range want {
			if math.Abs(want[v]-got[v]) > 1e-9*math.Max(1, want[v]) {
				t.Fatalf("%s: vertex %d scores %v, the weighted oracle %v", algo, v, got[v], want[v])
			}
		}
	}
	// Direct construction.
	wg := NewWeightedGraph(3, []WeightedEdge{{From: 0, To: 1, W: 2}, {From: 1, To: 2, W: 3}}, false)
	bc, err := BetweennessCentrality(wg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bc[1] != 2 {
		t.Fatalf("middle bc = %v, want 2", bc[1])
	}
}

// weightedBCOracle is exact BC of a small weighted graph from first
// principles: all-pairs distances by Floyd–Warshall, σ_st summed over the
// last arc of each shortest s–t path, then Σ σ_sv·σ_vt/σ_st over every pair
// s, t whose shortest paths pass through v. Integer weights keep every
// distance comparison exact.
func weightedBCOracle(g *Graph) []float64 {
	n := g.NumVertices()
	dist := make([][]float64, n)
	for s := range dist {
		dist[s] = make([]float64, n)
		for t := range dist[s] {
			dist[s][t] = math.Inf(1)
		}
		dist[s][s] = 0
		for i, t := range g.Out(V(s)) {
			dist[s][t] = g.OutWeights(V(s))[i]
		}
	}
	for k := range dist {
		for s := range dist {
			for t := range dist {
				if d := dist[s][k] + dist[k][t]; d < dist[s][t] {
					dist[s][t] = d
				}
			}
		}
	}
	sigma := make([][]float64, n)
	for s := range sigma {
		sigma[s] = make([]float64, n)
		sigma[s][s] = 1
		order := make([]int, n)
		for t := range order {
			order[t] = t
		}
		sort.Slice(order, func(i, j int) bool { return dist[s][order[i]] < dist[s][order[j]] })
		for _, t := range order[1:] {
			for i, u := range g.In(V(t)) {
				if dist[s][u]+g.InWeights(V(t))[i] == dist[s][t] {
					sigma[s][t] += sigma[s][u]
				}
			}
		}
	}
	bc := make([]float64, n)
	for v := range bc {
		for s := range dist {
			for t := range dist {
				if s != v && t != v && s != t && sigma[s][t] > 0 && dist[s][v]+dist[v][t] == dist[s][t] {
					bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
	}
	return bc
}

func TestClosenessFacade(t *testing.T) {
	g := GenerateSocial(SocialParams{N: 200, AvgDeg: 4, Communities: 4,
		TopShare: 0.5, LeafFrac: 0.3, Seed: 9})
	res, err := ClosenessCentrality(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Closeness) != 200 {
		t.Fatalf("len = %d", len(res.Closeness))
	}
	for v, c := range res.Closeness {
		if c <= 0 || c > 1 {
			t.Fatalf("closeness[%d] = %v out of (0,1]", v, c)
		}
	}
	// Directed path: source sees everything, sink nothing.
	gd := NewGraph(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}}, true)
	rd, err := ClosenessCentrality(gd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Closeness[2] != 0 || rd.Closeness[0] <= 0 {
		t.Fatalf("directed closeness = %v", rd.Closeness)
	}
	// Closeness counts hops: a weighted graph, either direction, is an error.
	for _, directed := range []bool{false, true} {
		wg := NewWeightedGraph(3, []WeightedEdge{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}, {From: 0, To: 2, W: 100}}, directed)
		if _, err := ClosenessCentrality(wg, 1); err == nil {
			t.Fatalf("weighted closeness (directed %v): want an error", directed)
		}
	}
}

func TestNewFacadeExtensions(t *testing.T) {
	g := GenerateSocial(SocialParams{N: 150, AvgDeg: 4, Communities: 4,
		TopShare: 0.5, LeafFrac: 0.3, Seed: 13})
	inc, err := NewIncrementalBC(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.BC()) != 150 {
		t.Fatal("incremental BC length")
	}
}

// pathCountLadder is a width-2 complete-bipartite ladder of the given number
// of layers between two apexes: vertex 0, joined to both vertices of layer 0,
// and vertex 2·layers+1, joined to both of the last layer. From either apex
// the other is reached over 2^layers shortest paths, +Inf in float64 from
// 1,024 layers on.
func pathCountLadder(layers int) *Graph {
	far := V(2*layers + 1)
	edges := []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: far - 2, To: far}, {From: far - 1, To: far}}
	for j := V(0); j < V(layers-1); j++ {
		for _, a := range []V{1 + 2*j, 2 + 2*j} {
			edges = append(edges, Edge{From: a, To: 3 + 2*j}, Edge{From: a, To: 4 + 2*j})
		}
	}
	return NewGraph(int(far)+1, edges, false)
}

// TestPathCountOverflowIsAnError: once a shortest-path count passes float64,
// every algorithm — on the weighted copy too, where APGRE and serial sweep
// with Dijkstra — and the incremental and approximate entry points return
// ErrPathCountOverflow instead of scores. At 1,024 layers only the apexes'
// σ from each other is +Inf and the scores would be finite but wrong (a
// layer-0 vertex 2046.5 for 2047); at 1,100 most would be NaN or ±Inf.
func TestPathCountOverflowIsAnError(t *testing.T) {
	for _, layers := range []int{1024, 1100} {
		g := pathCountLadder(layers)
		wg := AttachRandomWeights(g, 1, 1) // every weight 1: the same shortest paths
		for _, algo := range Algorithms() {
			if _, err := BetweennessCentrality(g, Options{Algorithm: algo, Workers: 2}); !errors.Is(err, ErrPathCountOverflow) {
				t.Errorf("%d layers: %s returned %v, want ErrPathCountOverflow", layers, algo, err)
			}
		}
		for _, algo := range []Algorithm{AlgoAPGRE, AlgoSerial} {
			if _, err := BetweennessCentrality(wg, Options{Algorithm: algo, Workers: 2}); !errors.Is(err, ErrPathCountOverflow) {
				t.Errorf("%d layers, weighted: %s returned %v, want ErrPathCountOverflow", layers, algo, err)
			}
		}
		if _, err := NewIncrementalBC(g, Options{}); !errors.Is(err, ErrPathCountOverflow) {
			t.Errorf("%d layers: NewIncrementalBC returned %v, want ErrPathCountOverflow", layers, err)
		}
		if _, err := ApproximateBC(g, ApproxOptions{Pivots: g.NumVertices(), Seed: 1}); !errors.Is(err, ErrPathCountOverflow) {
			t.Errorf("%d layers: ApproximateBC returned %v, want ErrPathCountOverflow", layers, err)
		}
	}
}
