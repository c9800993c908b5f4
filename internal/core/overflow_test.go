package core

import (
	"errors"
	"testing"

	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
)

// ladder is a width-2 complete-bipartite ladder of the given number of
// layers between two apexes, vertex 0 and vertex 2·layers+1, each joined to
// both vertices of its end layer. Each apex reaches the other over 2^layers
// shortest paths: +Inf in float64 from 1,024 layers on. dropLast leaves out
// the far apex's second arc, which halves that to 2^(layers-1).
func ladder(layers int, dropLast bool) []graph.Edge {
	far := graph.V(2*layers + 1)
	edges := []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: far - 2, To: far}}
	if !dropLast {
		edges = append(edges, graph.Edge{From: far - 1, To: far})
	}
	for j := graph.V(0); j < graph.V(layers-1); j++ {
		for _, a := range []graph.V{1 + 2*j, 2 + 2*j} {
			edges = append(edges, graph.Edge{From: a, To: 3 + 2*j}, graph.Edge{From: a, To: 4 + 2*j})
		}
	}
	return edges
}

// TestPathCountOverflowEveryKernel: a σ of +Inf is caught by every kernel
// that can meet it — bfsRoot top-down and bottom-up, the lane kernel (which
// hands an inexact batch to bfsRoot), Dijkstra — at one and two workers and
// under either scheduler, and Compute and NewIncremental return
// ErrPathCountOverflow instead of scores.
func TestPathCountOverflowEveryKernel(t *testing.T) {
	for _, layers := range []int{1024, 1100} {
		g := graph.NewFromEdges(2*layers+2, ladder(layers, false), false)
		for name, opt := range map[string]Options{
			"rule, one worker":   {Workers: 1},
			"rule, two workers":  {Workers: 2},
			"static scheduler":   {Workers: 2, Scheduler: SchedulerStatic},
			"lanes forced":       {Workers: 2, RootEngine: EngineMSBFS},
			"directed, one-way":  {Workers: 1},
			"weighted, Dijkstra": {Workers: 2},
		} {
			in := g
			switch name {
			case "directed, one-way":
				in = graph.NewFromEdges(2*layers+2, ladder(layers, false), true)
			case "weighted, Dijkstra":
				in = gen.WithRandomWeights(g, 1, 1) // every weight 1: the same shortest paths
			}
			if _, err := Compute(in, opt); !errors.Is(err, graph.ErrPathCountOverflow) {
				t.Errorf("%d layers, %s: Compute returned %v, want ErrPathCountOverflow", layers, name, err)
			}
		}
		d, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// One root, the apex 0, in each direction mode: a bottom-up level
		// scans every unvisited vertex, too slow to sweep every root with.
		for _, force := range []direction{dirTopDown, dirBottomUp} {
			e := &engine{force: force}
			sg := d.Subgraphs[0]
			scalarOnly(func() {
				e.ensure(sg)
				e.runRoots(sg, sg.Roots[:1], false)
			})
			clear(e.ws.BC)
			e.release()
			if !e.overflow || sg.Verts[sg.Roots[0]] != 0 || (force == dirBottomUp) != (e.bottomUpLevels > 0) {
				t.Errorf("%d layers, direction %d: overflow %v from root %d, %d bottom-up levels",
					layers, force, e.overflow, sg.Verts[sg.Roots[0]], e.bottomUpLevels)
			}
		}
		if _, err := NewIncremental(g, Options{}); !errors.Is(err, graph.ErrPathCountOverflow) {
			t.Errorf("%d layers: NewIncremental returned %v, want ErrPathCountOverflow", layers, err)
		}
	}
}

// TestApplyBatchOverflowPublishesNothing: a batch whose next epoch would
// overflow σ fails with ErrPathCountOverflow and leaves the current epoch —
// sequence number and scores — as it was.
func TestApplyBatchOverflowPublishesNothing(t *testing.T) {
	const layers = 1024
	inc, err := NewIncremental(graph.NewFromEdges(2*layers+2, ladder(layers, true), false), Options{})
	if err != nil {
		t.Fatal(err) // 2^1023 paths: finite
	}
	before := inc.Snapshot()
	far := graph.V(2*layers + 1)
	errs, err := inc.ApplyBatch([]EdgeOp{{Add: true, U: far - 1, V: far}})
	if !errors.Is(err, graph.ErrPathCountOverflow) || errs[0] != nil {
		t.Fatalf("ApplyBatch returned %v, %v; want ErrPathCountOverflow for the batch", errs, err)
	}
	after := inc.Snapshot()
	if after.Seq != before.Seq || &after.BCView()[0] != &before.BCView()[0] {
		t.Fatalf("a failed batch published epoch %d over %d", after.Seq, before.Seq)
	}
}
