package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/brandes"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
)

// assertIncMatches holds the engine's scores to serial Brandes and to a fresh
// Compute, both on the engine's current graph, and the whole epoch to a fresh
// engine's on that graph: the same decomposition, the same scores bit for bit.
// The fresh engine sweeps with the scalar kernel alone, so whatever kernels
// inc's epochs went through — the rule's, or forced lanes — are held to it.
func assertIncMatches(t *testing.T, inc *Incremental, label string) {
	t.Helper()
	want := brandes.Serial(inc.Graph())
	got := inc.BC()
	if i, ok := bcClose(want, got, 1e-9); !ok {
		t.Fatalf("%s: incremental BC differs at %d: want %v got %v",
			label, i, want[i], got[i])
	}
	fresh, err := Compute(inc.Graph(), inc.opt)
	if err != nil {
		t.Fatalf("%s: fresh Compute: %v", label, err)
	}
	if i, ok := bcClose(fresh, got, 1e-9); !ok {
		t.Fatalf("%s: incremental BC differs from a fresh Compute at %d: fresh %v got %v",
			label, i, fresh[i], got[i])
	}
	var again *Incremental
	scalarOnly(func() {
		again, err = NewIncremental(inc.Graph(), Options{Threshold: inc.opt.Threshold, DisableGamma: inc.opt.DisableGamma})
	})
	if err != nil {
		t.Fatalf("%s: fresh NewIncremental: %v", label, err)
	}
	bcBitsEqual(t, label+": fresh scalar NewIncremental vs epoch", again.BC(), got)
	d, fd := inc.Decomposition(), again.Decomposition()
	if len(d.Subgraphs) != len(fd.Subgraphs) || d.TopIndex != fd.TopIndex || d.NumArticulation != fd.NumArticulation {
		t.Fatalf("%s: the epoch's decomposition has %d sub-graphs (top %d) and %d boundary APs, a fresh one %d (top %d) and %d",
			label, len(d.Subgraphs), d.TopIndex, d.NumArticulation, len(fd.Subgraphs), fd.TopIndex, fd.NumArticulation)
	}
	for si, sg := range d.Subgraphs {
		if !sg.SweepEqual(fd.Subgraphs[si]) {
			t.Fatalf("%s: sub-graph %d of the epoch's decomposition differs from a fresh one's", label, si)
		}
	}
}

// toggle removes the edge (arc) u-v if the engine's graph has it and inserts
// it otherwise.
func toggle(inc *Incremental, u, v graph.V) error {
	if inc.Graph().HasArc(u, v) {
		return inc.RemoveEdge(u, v)
	}
	return inc.InsertEdge(u, v)
}

// leafWorld is a graph with a folded vertex of every kind. The top block is
// K4 {0,1,2,3} with 17 on the edge 0-1; triangles {3,8,9} and {8,10,11} hang
// off it in a chain, which at Threshold 3 makes 8 a boundary AP between their
// two sub-graphs — and 8 is also the centre of the star 12, 13, 14. Pendants
// 4 and 5 hang at 0, 6 at 1, 7 at 2, and {15,16} is a K2 component. Directed,
// block edges run both ways and every pendant is a source: its arc points at
// its anchor (15->16; 17->0 and 17->1).
func leafWorld(directed bool) *graph.Graph {
	block := []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}, {From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 3},
		{From: 3, To: 8}, {From: 8, To: 9}, {From: 9, To: 3},
		{From: 8, To: 10}, {From: 10, To: 11}, {From: 11, To: 8},
	}
	pendant := []graph.Edge{
		{From: 17, To: 0}, {From: 17, To: 1},
		{From: 4, To: 0}, {From: 5, To: 0}, {From: 6, To: 1}, {From: 7, To: 2},
		{From: 12, To: 8}, {From: 13, To: 8}, {From: 14, To: 8},
		{From: 15, To: 16},
	}
	edges := append(block, pendant...)
	if directed {
		for _, e := range block {
			edges = append(edges, graph.Edge{From: e.To, To: e.From})
		}
	}
	return graph.NewFromEdges(18, edges, directed)
}

// TestIncrementalLeafEdits drives edits through folded vertices: every op
// here changes which vertices of a sub-graph are folded, and some detach a
// vertex altogether and attach it again.
func TestIncrementalLeafEdits(t *testing.T) {
	script := []struct {
		what string
		u, v graph.V
	}{
		{"join two leaves", 4, 5},
		{"join a leaf to a core vertex", 6, 2},
		{"a core vertex becomes a leaf", 17, 1},
		{"remove a leaf's only edge", 7, 2},
		{"remove the K2 component's edge", 15, 16},
		{"restore the K2 component's edge", 15, 16},
		{"remove a spoke of the boundary AP's star", 12, 8},
		{"restore the spoke", 12, 8},
		{"join two spokes of the boundary AP's star", 12, 13},
		{"reattach the removed leaf", 7, 2},
		{"part the two joined leaves", 4, 5},
		{"the leaf becomes a core vertex again", 17, 1},
		{"part the two joined spokes", 12, 13},
	}
	for _, directed := range []bool{false, true} {
		name := "undirected"
		if directed {
			name = "directed"
		}
		t.Run(name, func(t *testing.T) {
			inc, err := NewIncremental(leafWorld(directed), Options{Threshold: 3})
			if err != nil {
				t.Fatal(err)
			}
			d := inc.Decomposition()
			// 18 vertices, the two APs twice, eight folded: 4-7, 12-14, 16.
			if len(d.Subgraphs) != 4 || d.NumArticulation != 2 || d.TotalRoots() != 18+2-8 {
				t.Fatalf("%d sub-graphs, %d boundary APs, %d roots; want 4, 2 and 12",
					len(d.Subgraphs), d.NumArticulation, d.TotalRoots())
			}
			assertIncMatches(t, inc, "initial")
			for _, op := range script {
				if err := toggle(inc, op.u, op.v); err != nil {
					t.Fatalf("%s: %v", op.what, err)
				}
				assertIncMatches(t, inc, op.what)
			}
		})
	}
}

func TestIncrementalIntraSubgraph(t *testing.T) {
	g := gen.Caveman(4, 5, false)
	inc, err := NewIncremental(g, Options{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "initial")

	// Chord inside clique 1 (vertices 5..9 are one sub-graph).
	if err := inc.InsertEdge(6, 9); err == nil {
		t.Fatal("expected duplicate error for clique edge")
	}
	// Cliques are complete; remove an edge instead, then re-add it.
	if err := inc.RemoveEdge(6, 9); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "remove clique chord")
	if err := inc.InsertEdge(6, 9); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "re-add clique chord")
	if inc.FullRebuilds() != 0 {
		t.Fatalf("intra-sub-graph ops triggered %d rebuilds", inc.FullRebuilds())
	}
}

func TestIncrementalCrossSubgraphRebuilds(t *testing.T) {
	g := gen.Caveman(3, 5, false)
	inc, err := NewIncremental(g, Options{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Vertices 1 (clique 0) and 11 (clique 2) share no sub-graph: inserting
	// the edge fuses blocks along the whole chain.
	if err := inc.InsertEdge(1, 11); err != nil {
		t.Fatal(err)
	}
	if inc.FullRebuilds() != 1 {
		t.Fatalf("rebuilds = %d, want 1", inc.FullRebuilds())
	}
	assertIncMatches(t, inc, "cross insert")
	// Removing it again: the edge now lives in one (big) sub-graph.
	if err := inc.RemoveEdge(1, 11); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "cross remove")
}

func TestIncrementalLeafDynamics(t *testing.T) {
	// Star: removing a spoke isolates a leaf; re-adding restores it. γ
	// bookkeeping must follow.
	inc, err := NewIncremental(gen.Star(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.RemoveEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "spoke removed")
	if err := inc.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "spoke restored")
	// Adding an edge between two leaves creates a triangle-ish block within
	// the same sub-graph.
	if err := inc.InsertEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "leaf-leaf edge")
}

func TestIncrementalDirected(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 120, AvgDeg: 4, Communities: 4,
		TopShare: 0.5, LeafFrac: 0.3, Directed: true, Reciprocity: 0.5, Seed: 9})
	inc, err := NewIncremental(g, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "initial directed")
	// Reverse an existing arc: remove u->v, insert v->u.
	var u, v graph.V = -1, -1
	for _, e := range g.Edges() {
		if !g.HasArc(e.To, e.From) {
			u, v = e.From, e.To
			break
		}
	}
	if u < 0 {
		t.Skip("no one-way arc found")
	}
	if err := inc.RemoveEdge(u, v); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "arc removed")
	if err := inc.InsertEdge(v, u); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "arc reversed")
}

func TestIncrementalValidation(t *testing.T) {
	inc, err := NewIncremental(gen.Path(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.InsertEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := inc.InsertEdge(0, 99); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := inc.InsertEdge(0, 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := inc.RemoveEdge(0, 3); err == nil {
		t.Fatal("absent removal accepted")
	}
	if _, err := NewIncremental(gen.WithRandomWeights(gen.Path(4), 3, 1), Options{}); err == nil {
		t.Fatal("weighted graph accepted")
	}
}

// bridgeWorld builds two triangles joined by a bridge: {0,1,2} - (2,3) -
// {3,4,5}. With Threshold 1 the decomposition keeps three sub-graphs: the
// two triangles and the bridge block {2,3}, with boundary APs 2 and 3.
func bridgeWorld(directed bool) *graph.Graph {
	edges := []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
		{From: 2, To: 3},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 3},
	}
	if directed {
		// Make every edge reciprocal so both triangles stay strongly
		// connected; the decomposition still finds the same blocks.
		for _, e := range append([]graph.Edge(nil), edges...) {
			edges = append(edges, graph.Edge{From: e.To, To: e.From})
		}
	}
	return graph.NewFromEdges(6, edges, directed)
}

// Removing a bridge edge splits its block and disconnects the two triangles.
// The edit is inside one sub-graph (it counts as local) and must stay exact:
// the triangles' boundary APs lose their entire outside regions, so their α/β
// must drop to zero even though those sub-graphs were not the ones edited.
func TestIncrementalBridgeRemoval(t *testing.T) {
	for _, directed := range []bool{false, true} {
		name := "undirected"
		if directed {
			name = "directed"
		}
		t.Run(name, func(t *testing.T) {
			inc, err := NewIncremental(bridgeWorld(directed), Options{Threshold: 1})
			if err != nil {
				t.Fatal(err)
			}
			assertIncMatches(t, inc, "initial")
			if err := inc.RemoveEdge(2, 3); err != nil {
				t.Fatal(err)
			}
			if inc.FullRebuilds() != 0 {
				t.Fatalf("bridge removal counted %d rebuilds, want 0 (its endpoints share a sub-graph)", inc.FullRebuilds())
			}
			assertIncMatches(t, inc, "bridge removed")
			if directed {
				// The reciprocal arc 3->2 still connects the triangles one
				// way; drop it too so both cases end fully disconnected.
				if err := inc.RemoveEdge(3, 2); err != nil {
					t.Fatal(err)
				}
				assertIncMatches(t, inc, "reverse bridge removed")
			}
			// The components must no longer see each other: every BC score
			// counts only triangle-internal paths (zero, in fact).
			for v, s := range inc.BC() {
				if s != 0 {
					t.Fatalf("split triangles have no brokered paths; bc[%d] = %v", v, s)
				}
			}
			// Re-inserting the bridge joins two components again and must
			// restore the regions.
			if err := inc.InsertEdge(2, 3); err != nil {
				t.Fatal(err)
			}
			if directed {
				assertIncMatches(t, inc, "one-way bridge")
				if err := inc.InsertEdge(3, 2); err != nil {
					t.Fatal(err)
				}
			}
			assertIncMatches(t, inc, "bridge restored")
		})
	}
}

// A leaf edge is the degenerate bridge: removing it splits off an isolated
// vertex while another sub-graph still carries the AP's stale α.
func TestIncrementalLeafBridgeRemoval(t *testing.T) {
	// Triangle {0,1,2} plus the leaf edge 2-3, Threshold 1 so the leaf block
	// stays its own sub-graph and 2 is a boundary AP with α=1 in the triangle.
	g := graph.NewFromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 2, To: 3},
	}, false)
	inc, err := NewIncremental(g, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "initial")
	if err := inc.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if inc.FullRebuilds() != 0 {
		t.Fatalf("leaf removal counted %d rebuilds, want 0", inc.FullRebuilds())
	}
	assertIncMatches(t, inc, "leaf detached")
	if err := inc.InsertEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	assertIncMatches(t, inc, "leaf reattached")
}

// Randomized soak: a stream of random insertions and removals, each followed
// by an exactness check against a fresh Brandes run.
// TestSnapshotEpochImmutable: a snapshot taken before a mutation is a frozen
// epoch — its scores, graph and decomposition never change, no matter how the
// engine moves on; the next snapshot carries a higher sequence number.
func TestSnapshotEpochImmutable(t *testing.T) {
	g := gen.Caveman(4, 5, false)
	inc, err := NewIncremental(g, Options{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap0 := inc.Snapshot()
	bc0 := append([]float64(nil), snap0.BCView()...)
	edges0 := snap0.Graph.NumEdges()
	subs0 := len(snap0.Decomposition.Subgraphs)

	if err := inc.RemoveEdge(6, 9); err != nil { // local update
		t.Fatal(err)
	}
	if err := inc.InsertEdge(1, 11); err != nil { // forces a rebuild
		t.Fatal(err)
	}

	for i, v := range snap0.BCView() {
		if v != bc0[i] {
			t.Fatalf("old epoch's scores changed at %d: %v -> %v", i, bc0[i], v)
		}
	}
	if snap0.Graph.NumEdges() != edges0 {
		t.Fatalf("old epoch's graph changed: %d -> %d edges", edges0, snap0.Graph.NumEdges())
	}
	if len(snap0.Decomposition.Subgraphs) != subs0 {
		t.Fatal("old epoch's decomposition changed shape")
	}
	snap1 := inc.Snapshot()
	if snap1.Seq <= snap0.Seq {
		t.Fatalf("seq did not advance: %d -> %d", snap0.Seq, snap1.Seq)
	}
	assertIncMatches(t, inc, "after mutations")
}

// TestIncrementalConcurrentReaders hammers lock-free snapshot reads while a
// writer mutates — the race detector (ci runs this package under -race)
// checks the epoch handoff, and each reader checks its epoch is internally
// consistent (score vector sized to its own graph, every row of its
// decomposition inside its sub-graph) and reads every score and every row of
// it. The caveman writer removes and restores a clique edge, a non-leaf edit
// in a dense sub-graph; the leafWorld writer joins and parts two folded
// leaves, so every edit changes which vertices a sub-graph's swept rows leave
// out.
func TestIncrementalConcurrentReaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		edit func(inc *Incremental) error
	}{
		{"caveman clique edge", gen.Caveman(4, 6, false), func(inc *Incremental) error {
			for i := 0; i < 20; i++ {
				if err := inc.RemoveEdge(1, 2); err != nil {
					return err
				}
				if err := inc.InsertEdge(1, 2); err != nil {
					return err
				}
			}
			return nil
		}},
		{"leafWorld leaf pair", leafWorld(false), func(inc *Incremental) error {
			for i := 0; i < 40; i++ {
				if err := toggle(inc, 4, 5); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc, err := NewIncremental(tc.g, Options{Threshold: 3})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			errs := make(chan error, 4)
			for r := 0; r < 4; r++ {
				go func() {
					for {
						select {
						case <-done:
							errs <- nil
							return
						default:
						}
						snap := inc.Snapshot()
						if len(snap.BCView()) != snap.Graph.NumVertices() {
							errs <- errInconsistentEpoch
							return
						}
						var sum float64
						for _, v := range snap.BCView() {
							sum += v
						}
						_ = sum
						for _, sg := range snap.Decomposition.Subgraphs {
							for l := int32(0); int(l) < sg.NumVerts(); l++ {
								for _, w := range sg.Out(l) {
									if int(w) >= sg.NumVerts() || folded(sg, w) {
										errs <- errInconsistentEpoch
										return
									}
								}
							}
						}
					}
				}()
			}
			editErr := tc.edit(inc)
			close(done)
			for r := 0; r < 4; r++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if editErr != nil {
				t.Fatal(editErr)
			}
			assertIncMatches(t, inc, "after concurrent churn")
		})
	}
}

var errInconsistentEpoch = fmt.Errorf("snapshot scores or rows do not fit the snapshot's own graph")

func TestIncrementalRandomOps(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 90, AvgDeg: 4, Communities: 4,
		TopShare: 0.5, LeafFrac: 0.3, Seed: 10})
	inc, err := NewIncremental(g, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	ops := 0
	for ops < 40 {
		u := graph.V(r.Intn(90))
		v := graph.V(r.Intn(90))
		if u == v {
			continue
		}
		cur := inc.Graph()
		var opErr error
		if cur.HasArc(u, v) {
			opErr = inc.RemoveEdge(u, v)
		} else {
			opErr = inc.InsertEdge(u, v)
		}
		if opErr != nil {
			t.Fatalf("op %d (%d,%d): %v", ops, u, v, opErr)
		}
		ops++
		assertIncMatches(t, inc, "soak")
	}
	if inc.FullRebuilds() == 0 {
		t.Log("note: soak run never required a structural rebuild")
	}
}

// sweptAgain returns the vertex sets — ascending, whatever the layout — of the
// sub-graphs of inc's current epoch whose contribution is not a slice of
// prev's. It fails unless reuse went by
// identity of inputs: a sub-graph with an equal in prev holds that sub-graph's
// contribution slice itself, same backing array, and a sub-graph without one
// shares no array with prev.
func sweptAgain(t *testing.T, label string, prev *epochState, inc *Incremental) (swept []string) {
	t.Helper()
	next := inc.cur.Load()
	for si, sg := range next.d.Subgraphs {
		equal, shared := -1, -1
		for pj, psg := range prev.d.Subgraphs {
			if psg.SweepEqual(sg) {
				equal = pj
			}
			if &prev.contrib[pj][0] == &next.contrib[si][0] {
				shared = pj
			}
		}
		if equal != shared {
			t.Fatalf("%s: sub-graph %v equals sub-graph %d of the previous epoch and holds the contribution slice of sub-graph %d (-1: none)",
				label, sg.Verts, equal, shared)
		}
		if shared < 0 {
			verts := slices.Clone(sg.Verts)
			slices.Sort(verts)
			swept = append(swept, fmt.Sprint(verts))
		}
	}
	assertIncMatches(t, inc, label)
	return swept
}

// TestEpochReusesUntouchedContributions: an epoch sweeps the sub-graphs whose
// inputs changed and takes every other contribution over from the epoch before
// it, whatever the edit did to the partition.
func TestEpochReusesUntouchedContributions(t *testing.T) {
	// Six cliques in a chain, vertices 5c..5c+4, bridged 5c - 5c+5: a
	// sub-graph each (the first with its bridge), and the path of the other
	// bridges in two more.
	inc, err := NewIncremental(gen.Caveman(6, 5, false), Options{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(inc.Decomposition().Subgraphs); n != 8 {
		t.Fatalf("%d sub-graphs, want 8", n)
	}
	for _, step := range []struct {
		what string
		op   EdgeOp
		want []string
	}{
		{"an edit inside clique 1", EdgeOp{Add: false, U: 6, V: 9}, []string{"[5 6 7 8 9]"}},
		{"an insertion that fuses cliques 0 and 2", EdgeOp{Add: true, U: 1, V: 11}, []string{"[0 1 2 3 4 5 10 11 12 13 14 15]"}},
		{"the removal that splits them again", EdgeOp{Add: false, U: 1, V: 11},
			[]string{"[0 1 2 3 4 5]", "[10 11 12 13 14]", "[5 10 15]"}},
	} {
		prev := inc.cur.Load()
		if err := inc.applyOne(step.op); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if got := sweptAgain(t, step.what, prev, inc); !slices.Equal(got, step.want) {
			t.Fatalf("%s swept the sub-graphs %v again, want %v", step.what, got, step.want)
		}
	}

	// A sub-graph laid out for the cache is reused like any other, its layout
	// being a function of its own vertices and arcs: a wheel, hub 0 and rim
	// 1..40, has a hub and is relabelled; the bridge 1-41 goes with it, and an
	// edit inside the clique {41..45} beyond sweeps the clique alone.
	var wheel []graph.Edge
	for v := graph.V(1); v <= 40; v++ {
		wheel = append(wheel, graph.Edge{From: 0, To: v}, graph.Edge{From: v, To: v%40 + 1})
	}
	wheel = append(wheel, graph.Edge{From: 1, To: 41})
	for u := graph.V(41); u <= 45; u++ {
		for v := u + 1; v <= 45; v++ {
			wheel = append(wheel, graph.Edge{From: u, To: v})
		}
	}
	inc, err = NewIncremental(graph.NewFromEdges(46, wheel, false), Options{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev := inc.cur.Load()
	if err := inc.RemoveEdge(42, 43); err != nil {
		t.Fatal(err)
	}
	if got, want := sweptAgain(t, "an edit beside a relabelled sub-graph", prev, inc), []string{"[41 42 43 44 45]"}; !slices.Equal(got, want) {
		t.Fatalf("removing 42-43 swept the sub-graphs %v again, want %v", got, want)
	}
	for _, sg := range inc.Decomposition().Subgraphs {
		if isWheel := sg.NumVerts() == 42; sg.Relabelled() != isWheel {
			t.Fatalf("the sub-graph of %d vertices: relabelled %v; want the wheel relabelled and the clique not", sg.NumVerts(), sg.Relabelled())
		}
	}

	// Directed, reachability runs through sub-graphs: the bridge 2-3 goes with
	// triangle {3,4,5}, and without its arc 2->3 triangle {0,1,2} reaches
	// nothing beyond its boundary AP 2, so it has a new α and is swept again
	// with no arc of its own edited. Triangle {6,7,8}, a component of its own,
	// is not.
	var edges []graph.Edge
	for _, e := range []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 2, To: 3},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 3},
		{From: 6, To: 7}, {From: 7, To: 8}, {From: 8, To: 6},
	} {
		edges = append(edges, e, graph.Edge{From: e.To, To: e.From})
	}
	inc, err = NewIncremental(graph.NewFromEdges(9, edges, true), Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev = inc.cur.Load()
	if err := inc.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := sweptAgain(t, "directed bridge arc removed", prev, inc), []string{"[2 3 4 5]", "[0 1 2]"}; !slices.Equal(got, want) {
		t.Fatalf("removing 2->3 swept the sub-graphs %v again, want %v", got, want)
	}
}

// folded reports whether local vertex l of sg is γ-folded: not one of its
// roots, which list the swept vertices in global-id order.
func folded(sg *decompose.Subgraph, l int32) bool {
	_, root := slices.BinarySearchFunc(sg.Roots, sg.Verts[l], func(r int32, v graph.V) int { return cmp.Compare(sg.Verts[r], v) })
	return !root
}
