package core

import (
	"testing"

	"repro/internal/decompose"
	"repro/internal/gen"
)

// Allocation gates for the pooled sweep-workspace arena: once a workspace is
// warm (checked out and grown to the sub-graph's size), repeated root sweeps
// must not touch the heap — the dirty-list sparse resets restore the
// clean-slot invariants without reallocating anything.

func decomposeForAlloc(t *testing.T, nScale float64, avgDeg int) *decompose.Decomposition {
	t.Helper()
	g := gen.SocialLike(gen.SocialParams{N: int(400 * nScale), AvgDeg: avgDeg,
		Communities: 4, TopShare: 0.5, LeafFrac: 0.3, Seed: 7})
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// BenchmarkEngineWarm measures the steady-state per-root sweep on the
// largest sub-graph of the fixture; -benchmem should report 0 allocs/op
// (EXPERIMENTS.md records the before/after of the arena refactor).
func BenchmarkEngineWarm(b *testing.B) {
	g := gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 4,
		Communities: 4, TopShare: 0.5, LeafFrac: 0.3, Seed: 7})
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var sg *decompose.Subgraph
	for _, cand := range d.Subgraphs {
		if len(cand.Roots) > 0 && (sg == nil || cand.NumVerts() > sg.NumVerts()) {
			sg = cand
		}
	}
	var e engine
	e.ensure(sg)
	e.runRoots(sg, sg.Roots[:1], g.Directed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % len(sg.Roots)
		e.ensure(sg)
		e.runRoots(sg, sg.Roots[r:r+1], g.Directed())
	}
	b.StopTimer()
	clear(e.ws.BC)
	e.release()
}

func TestEngineWarmAllocs(t *testing.T) {
	// Small sub-graphs exercise the plain top-down sweep, the large ones the
	// direction-optimizing hybrid — under the rule on a sub-graph dense enough
	// for it (sweepsHybrid), and with every level bottom-up and pushing on a
	// sparse one, which fills the level table — one root per call, which is
	// always bfsRoot, writing its tape and reading it back; the last case hands
	// runRoots sixteen roots of a sub-graph the kernel rule gives to the lane
	// kernel, whose level lists and slot table must be as warm as the arena.
	// All must be allocation-free warm (ensure and runRoots, what drainUnits
	// does per unit) and leave the workspace clean once ws.BC is drained.
	for _, c := range []struct {
		scale  float64
		avgDeg int
		force  direction
		group  int
	}{{0.25, 4, dirAuto, 1}, {4, 10, dirAuto, 1}, {4, 4, dirBottomUp, 1}, {1, 4, dirAuto, 16}} {
		d := decomposeForAlloc(t, c.scale, c.avgDeg)
		var sg *decompose.Subgraph
		for _, cand := range d.Subgraphs {
			if len(cand.Roots) > 1 && (sg == nil || cand.NumVerts() > sg.NumVerts()) {
				sg = cand
			}
		}
		if sg == nil {
			t.Fatal("no multi-root sub-graph in fixture")
		}
		e := engine{force: c.force}
		directed := d.G.Directed()
		run := func(i int) {
			lo := i * c.group % (len(sg.Roots) - c.group + 1)
			e.ensure(sg)
			e.runRoots(sg, sg.Roots[lo:lo+c.group], directed)
		}
		for i := range sg.Roots {
			run(i)
		}
		dense := sweepsHybrid(len(sg.Roots), sg.NumArcs())
		if c.scale > 1 && (!e.hybrid || e.bottomUpLevels == 0 || dense != (c.force == dirAuto) ||
			c.force == dirBottomUp && e.pushedLevels == 0) {
			t.Fatalf("scale %v (n=%d) direction %d: dense %v, hybrid %v, %d bottom-up and %d pushed levels; the case is vacuous",
				c.scale, sg.NumVerts(), c.force, dense, e.hybrid, e.bottomUpLevels, e.pushedLevels)
		}
		if lanes := e.examined == 0; lanes != (c.group > 1) {
			t.Fatalf("scale %v (%d swept) groups of %d: lane kernel %v; the case is vacuous",
				c.scale, len(sg.Roots), c.group, lanes)
		}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			run(i)
			i++
		})
		clear(e.ws.BC)
		if err := checkClean(e.ws); err != nil {
			t.Fatalf("scale %v direction %d: %v", c.scale, c.force, err)
		}
		e.release()
		if allocs != 0 {
			t.Fatalf("scale %v (n=%d) direction %d: a warm unit allocates %.1f/op, want 0",
				c.scale, sg.NumVerts(), c.force, allocs)
		}
	}
}
