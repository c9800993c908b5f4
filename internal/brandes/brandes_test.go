package brandes

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ws"
)

// bcClose compares BC vectors with a relative tolerance.
func bcClose(a, b []float64, tol float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if diff > tol*scale {
			return i, false
		}
	}
	return -1, true
}

func TestSerialPath(t *testing.T) {
	// Path 0-1-2-3-4: BC(v) for interior v counts ordered pairs passing it.
	bc := Serial(gen.Path(5))
	want := []float64{0, 6, 8, 6, 0} // e.g. vertex 2: pairs (0,3),(0,4),(1,3),(1,4) ×2 directions
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-12 {
			t.Fatalf("bc[%d] = %v, want %v", i, bc[i], want[i])
		}
	}
}

func TestSerialStar(t *testing.T) {
	bc := Serial(gen.Star(6))
	// Hub: 5*4 = 20 ordered leaf pairs; leaves 0.
	if bc[0] != 20 {
		t.Fatalf("hub bc = %v, want 20", bc[0])
	}
	for i := 1; i < 6; i++ {
		if bc[i] != 0 {
			t.Fatalf("leaf bc[%d] = %v, want 0", i, bc[i])
		}
	}
}

func TestSerialCycle(t *testing.T) {
	// Even cycle n=6: by symmetry all scores equal. Each ordered pair at
	// distance 2 has 1 shortest path with 1 interior vertex; distance 3 has
	// 2 paths with 2 interior vertices each. Per vertex: pairs at distance
	// 2: contributes...; rely on symmetry + total-dependency identity
	// instead: sum of BC = sum over pairs of (interior vertices per pair).
	bc := Serial(gen.Cycle(6))
	for i := 1; i < 6; i++ {
		if math.Abs(bc[i]-bc[0]) > 1e-12 {
			t.Fatalf("cycle bc not symmetric: %v", bc)
		}
	}
	var total float64
	for _, x := range bc {
		total += x
	}
	// Ordered pairs: 6 at distance 1 per vertex... compute directly:
	// d=1: 12 pairs, 0 interior. d=2: 12 pairs, 1 interior. d=3: 6 vertex
	// pairs ×2 directions = 6... n=6: antipodal pairs: 3 unordered ×2 = 6
	// ordered, each with 2 shortest paths of 2 interior vertices → weight 2.
	// Total = 12*1 + 6*2 = 24.
	if math.Abs(total-24) > 1e-9 {
		t.Fatalf("cycle total dependency = %v, want 24", total)
	}
}

func TestSerialDirectedChain(t *testing.T) {
	// 0->1->2: only pair (0,2) passes 1.
	g := graph.NewFromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}}, true)
	bc := Serial(g)
	if bc[0] != 0 || bc[1] != 1 || bc[2] != 0 {
		t.Fatalf("bc = %v", bc)
	}
}

func TestSerialDiamondSigma(t *testing.T) {
	// Diamond: 0->1,0->2,1->3,2->3 directed. σ(0,3)=2, each middle vertex
	// carries 1/2.
	g := graph.NewFromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}}, true)
	bc := Serial(g)
	if bc[1] != 0.5 || bc[2] != 0.5 {
		t.Fatalf("bc = %v, want middles 0.5", bc)
	}
}

func TestSerialSuccsMatchesSerial(t *testing.T) {
	for _, g := range testGraphs() {
		a, b := Serial(g), SerialSuccs(g)
		if i, ok := bcClose(a, b, 1e-9); !ok {
			t.Fatalf("%v: SerialSuccs differs at %d: %v vs %v", g, i, a[i], b[i])
		}
	}
}

func testGraphs() []*graph.Graph {
	return []*graph.Graph{
		gen.Path(30),
		gen.Cycle(20),
		gen.Star(25),
		gen.Lollipop(6, 8),
		gen.Grid2D(6, 7),
		gen.Tree(60, 3),
		gen.BarabasiAlbert(120, 2, 4),
		gen.ErdosRenyi(80, 200, false, 5),
		gen.ErdosRenyi(80, 240, true, 6),
		gen.SocialLike(gen.SocialParams{N: 150, AvgDeg: 4, Communities: 4, TopShare: 0.5, LeafFrac: 0.25, Seed: 7}),
		gen.SocialLike(gen.SocialParams{N: 150, AvgDeg: 4, Communities: 4, TopShare: 0.5, LeafFrac: 0.25, Directed: true, Reciprocity: 0.5, Seed: 8}),
		gen.RoadLike(gen.RoadParams{Rows: 7, Cols: 8, DeleteFrac: 0.12, SpurFrac: 0.15, SpurLen: 2, Seed: 9}),
	}
}

func TestParallelVariantsMatchSerial(t *testing.T) {
	for gi, g := range testGraphs() {
		want := Serial(g)
		for _, p := range []int{1, 3} {
			for _, b := range Baselines {
				if b.Name == "async" && g.Directed() {
					continue
				}
				got, err := b.Run(g, p)
				if err != nil {
					t.Fatal(err)
				}
				if !okBC(t, want, got) {
					t.Fatalf("graph %d workers %d: %s differs", gi, p, b.Name)
				}
			}
		}
	}
}

func okBC(t *testing.T, want, got []float64) bool {
	t.Helper()
	i, ok := bcClose(want, got, 1e-9)
	if !ok {
		t.Logf("mismatch at vertex %d: want %v got %v", i, want[i], got[i])
	}
	return ok
}

func TestAsyncRejectsDirected(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, true, 1)
	if _, err := async(g, 2); err == nil {
		t.Fatal("expected error for directed input")
	}
}

// TestAsyncMatchesSerialSuccs pins that Async runs the serial successor-pull
// sweep on per-worker pooled scratch: at one worker the sources go in order
// into one partial array, so the scores are SerialSuccs' bit for bit; at two
// and four workers the merged partial arrays stay within the suite tolerance
// of Serial.
func TestAsyncMatchesSerialSuccs(t *testing.T) {
	for gi, g := range testGraphs() {
		if g.Directed() {
			continue
		}
		want := SerialSuccs(g)
		got, err := async(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("graph %d vertex %d: Async(1) %v != SerialSuccs %v", gi, v, got[v], want[v])
			}
		}
		serial := Serial(g)
		for _, p := range []int{2, 4} {
			got, err := async(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if !okBC(t, serial, got) {
				t.Fatalf("graph %d workers %d: Async differs", gi, p)
			}
		}
	}
}

func TestEmptyAndTiny(t *testing.T) {
	empty := graph.NewFromEdges(0, nil, false)
	for _, b := range Baselines {
		if bc, err := b.Run(empty, 2); err != nil || len(bc) != 0 {
			t.Fatalf("%s: empty graph gave %v, %v; want empty scores", b.Name, bc, err)
		}
	}
	one := graph.NewFromEdges(1, nil, false)
	if bc := Serial(one); bc[0] != 0 {
		t.Fatal("singleton bc must be 0")
	}
	two := graph.NewFromEdges(2, []graph.Edge{{From: 0, To: 1}}, false)
	bc := Serial(two)
	if bc[0] != 0 || bc[1] != 0 {
		t.Fatalf("K2 bc = %v", bc)
	}
}

// Property: all variants agree on random graphs, and every BC score is
// non-negative and bounded by (n-1)(n-2).
func TestQuickAllVariantsAgree(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		g := gen.ErdosRenyi(60, 150, directed, seed)
		want := Serial(g)
		n := float64(g.NumVertices())
		for _, x := range want {
			if x < 0 || x > (n-1)*(n-2)+1e-9 {
				return false
			}
		}
		for _, b := range Baselines {
			if b.Name == "async" && directed {
				continue
			}
			if got, err := b.Run(g, 2); err != nil {
				return false
			} else if _, ok := bcClose(want, got, 1e-9); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestBaselinesRejectWeighted: the baselines but serial count hops, so a
// weighted graph is an error for each of them whoever calls it, and serial
// sweeps it with Dijkstra.
func TestBaselinesRejectWeighted(t *testing.T) {
	g := gen.WithRandomWeights(gen.Grid2D(4, 5), 5, 1)
	for _, b := range Baselines {
		bc, err := b.Run(g, 2)
		if b.Name == "serial" {
			if err != nil || !okBC(t, Serial(g), bc) {
				t.Fatalf("serial on a weighted graph: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s accepted a weighted graph", b.Name)
		}
	}
}

// ladder is a width-2 complete-bipartite ladder of the given number of
// layers between two apexes: vertex 0, whose two neighbours are layer 0, and
// vertex 2·layers+1, whose two are the last layer. From vertex 0, layer j has
// σ = 2^j and the far apex 2^layers, which is +Inf in float64 from 1,024
// layers on.
func ladder(layers int) *graph.Graph {
	far := graph.V(2*layers + 1)
	edges := []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: far - 2, To: far}, {From: far - 1, To: far}}
	for j := graph.V(0); j < graph.V(layers-1); j++ {
		for _, a := range []graph.V{1 + 2*j, 2 + 2*j} {
			edges = append(edges, graph.Edge{From: a, To: 3 + 2*j}, graph.Edge{From: a, To: 4 + 2*j})
		}
	}
	return graph.NewFromEdges(int(far)+1, edges, false)
}

// TestBaselinesReportPathCountOverflow: once a σ passes float64, every
// baseline returns ErrPathCountOverflow instead of scores — at 1,024 layers,
// where only the far apex's σ is +Inf and the scores would be finite but
// wrong, and at 1,100, where most would be NaN — and Serial, which has no
// error to return, panics with it. A σ of 2^1023 is no overflow, a short
// ladder every baseline answers, and serial's Dijkstra leaves its pooled
// scratch clean when it stops at an overflow.
func TestBaselinesReportPathCountOverflow(t *testing.T) {
	for _, layers := range []int{1024, 1100} {
		g := ladder(layers)
		for _, b := range Baselines {
			if _, err := b.Run(g, 2); !errors.Is(err, graph.ErrPathCountOverflow) {
				t.Errorf("%d layers: %s returned %v, want ErrPathCountOverflow", layers, b.Name, err)
			}
		}
		func() {
			defer func() {
				if p := recover(); p != graph.ErrPathCountOverflow {
					t.Errorf("%d layers: Serial panicked with %v, want ErrPathCountOverflow", layers, p)
				}
			}()
			Serial(g)
		}()
	}
	Serial(ladder(1023))
	g := ladder(40)
	for _, b := range Baselines {
		if bc, err := b.Run(g, 2); err != nil || !okBC(t, Serial(g), bc) {
			t.Errorf("40 layers: %s: %v", b.Name, err)
		}
	}
	// Dijkstra stops at the overflow with a relaxed vertex still in its heap
	// (the other one of layer 1,024); the pooled scratch it hands back must
	// still be clean.
	wg := gen.WithRandomWeights(ladder(1100), 1, 1)
	if _, err := serial(wg, 1); !errors.Is(err, graph.ErrPathCountOverflow) {
		t.Errorf("weighted serial returned %v, want ErrPathCountOverflow", err)
	}
	// The pool holds async's sweeps too: check every one that has the
	// weighted arrays.
	weighted := 0
	for range 8 {
		sw := sweepPool.Get(wg.NumVertices())
		defer sweepPool.Put(sw)
		if len(sw.FDist) < wg.NumVertices() {
			continue
		}
		weighted++
		for v := range wg.NumVertices() {
			if sw.FDist[v] != -1 || sw.Done[v] || sw.Rec[v] != (ws.Record{}) {
				t.Fatalf("weighted serial left vertex %d dirty after an overflow: dist %v, done %v, %+v", v, sw.FDist[v], sw.Done[v], sw.Rec[v])
			}
		}
	}
	if weighted == 0 {
		t.Fatal("no pooled sweep has the weighted arrays")
	}
}
