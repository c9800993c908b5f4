package core

import (
	"fmt"
	"testing"

	"repro/internal/brandes"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ws"
)

// schedFamilies returns the nine graph families the repo's equivalence
// suites standardize on (see internal/approx testGraphs).
func schedFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":     gen.Path(20),
		"star":     gen.Star(20),
		"lollipop": gen.Lollipop(6, 10),
		"tree":     gen.Tree(50, 1),
		"caveman":  gen.Caveman(4, 6, false),
		"grid":     gen.Grid2D(6, 6),
		"social": gen.SocialLike(gen.SocialParams{
			N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 1}),
		"socialDir": gen.SocialLike(gen.SocialParams{
			N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3,
			Directed: true, Reciprocity: 0.5, Seed: 2}),
		"er": gen.ErdosRenyi(300, 900, false, 7),
	}
}

// TestSchedulerWorkerSweepMatchesBrandes is the acceptance pin for the unit
// scheduler: BC at workers 1, 2, 4 and 8 matches serial Brandes within the
// suite tolerance on all nine graph families, with a low threshold so
// decomposition, chunking and the hybrid sweep all engage even at these
// sizes.
func TestSchedulerWorkerSweepMatchesBrandes(t *testing.T) {
	for name, g := range schedFamilies() {
		want := brandes.Serial(g)
		for _, p := range []int{1, 2, 4, 8} {
			got, err := Compute(g, Options{
				Workers: p, Threshold: 8,
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if i, ok := bcClose(want, got, 1e-9); !ok {
				t.Fatalf("%s p=%d: dynamic scheduler differs from Brandes at vertex %d: want %v got %v",
					name, p, i, want[i], got[i])
			}
		}
	}
}

// TestComputeBitIdenticalAcrossWorkers pins what a split that ignores the
// worker count buys: Compute returns the same bits at workers 1, 2, 4 and 8
// on all nine families, unweighted and weighted, under a root budget and with
// lanes forced onto every unit. The worker-sweep test above holds the scores
// to Brandes; this one holds the worker counts to each other.
func TestComputeBitIdenticalAcrossWorkers(t *testing.T) {
	for name, g := range schedFamilies() {
		for _, c := range []struct {
			label string
			g     *graph.Graph
			opt   Options
		}{
			{"unweighted", g, Options{Threshold: 8}},
			{"weighted", gen.WithRandomWeights(g, 4, 9), Options{Threshold: 8}},
			{"budget", g, Options{Threshold: 8, RootBudget: 70}},
			{"lanes forced", g, Options{Threshold: 8, RootEngine: EngineMSBFS}},
		} {
			var want []float64
			for _, p := range []int{1, 2, 4, 8} {
				opt := c.opt
				opt.Workers = p
				got, err := Compute(c.g, opt)
				if err != nil {
					t.Fatalf("%s %s p=%d: %v", name, c.label, p, err)
				}
				if want == nil {
					want = got
					continue
				}
				bcBitsEqual(t, fmt.Sprintf("%s %s p=1 vs p=%d", name, c.label, p), want, got)
			}
		}
	}
}

// TestSchedulerStaticDynamicEquivalent cross-checks the two unit
// granularities against each other at several worker counts, and pins that
// SchedulerStatic's whole-sub-graph units, like the split, do not depend on
// the worker count, so its scores are bit-identical at 1 and 8 workers.
func TestSchedulerStaticDynamicEquivalent(t *testing.T) {
	for name, g := range schedFamilies() {
		var static1 []float64
		for _, p := range []int{1, 3, 8} {
			dyn, err := Compute(g, Options{Workers: p, Threshold: 8, Scheduler: SchedulerDynamic})
			if err != nil {
				t.Fatalf("%s p=%d dynamic: %v", name, p, err)
			}
			sta, err := Compute(g, Options{Workers: p, Threshold: 8, Scheduler: SchedulerStatic})
			if err != nil {
				t.Fatalf("%s p=%d static: %v", name, p, err)
			}
			if i, ok := bcClose(dyn, sta, 1e-9); !ok {
				t.Fatalf("%s p=%d: schedulers disagree at vertex %d: dynamic %v static %v",
					name, p, i, dyn[i], sta[i])
			}
			if p == 1 {
				static1 = sta
			} else {
				bcBitsEqual(t, name+" static across workers", static1, sta)
			}
		}
	}
}

// TestSchedulerDeterministic pins the deterministic-merge design: repeated
// multi-worker runs return bit-identical scores despite nondeterministic
// unit-to-worker assignment, for the BFS and the Dijkstra kernel alike.
func TestSchedulerDeterministic(t *testing.T) {
	social := schedFamilies()["social"]
	for name, g := range map[string]*graph.Graph{
		"social":   social,
		"weighted": gen.WithRandomWeights(social, 4, 9),
	} {
		base, err := Compute(g, Options{Workers: 8, Threshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 5; run++ {
			got, err := Compute(g, Options{Workers: 8, Threshold: 8})
			if err != nil {
				t.Fatal(err)
			}
			bcBitsEqual(t, name+" rerun", base, got)
		}
	}
}

// hybridFixtures adds to the nine families two graphs whose top sub-graph is
// past hybridMinVerts — at Threshold 8 only the undirected "er" family's is,
// so without them the bottom-up levels over a directed sub-graph's transpose
// in-CSR (Subgraph.EnsureIn) would never run. The directed community graph is
// dense enough for the rule to sweep it hybrid (4.5 arcs per swept vertex);
// the lattice (3.4) takes bottom-up levels only when they are forced.
func hybridFixtures() map[string]*graph.Graph {
	fams := schedFamilies()
	fams["lattice"] = gen.RoadLike(gen.RoadParams{
		Rows: 24, Cols: 24, DeleteFrac: 0.12, SpurFrac: 0.18, SpurLen: 4, Seed: 3})
	fams["socialDirBig"] = gen.SocialLike(gen.SocialParams{
		N: 2000, AvgDeg: 6, Communities: 4, TopShare: 0.6, LeafFrac: 0.2,
		Directed: true, Reciprocity: 0.5, Seed: 4})
	return fams
}

// sweepForced replays ComputeDecomposed's one-worker drain over d with the
// scalar kernel's direction choices pinned — and the lane kernel out of reach,
// so that every root goes through bfsRoot and its counters — returning the
// scores and the engine for its counters.
func sweepForced(t *testing.T, d *decompose.Decomposition, force direction) ([]float64, *engine) {
	t.Helper()
	bc := make([]float64, d.G.NumVertices())
	e := &engine{force: force}
	scalarOnly(func() {
		for _, sg := range d.Subgraphs {
			if len(sg.Roots) == 0 {
				continue
			}
			e.ensure(sg)
			e.runRoots(sg, sg.Roots, d.G.Directed())
			loc := e.ws.BC[:len(sg.Roots)]
			flushLocal(bc, sg, loc)
			for l := range loc {
				loc[l] = 0
			}
		}
	})
	if e.ws != nil {
		if err := checkClean(e.ws); err != nil {
			t.Fatalf("direction %d left the workspace dirty: %v", force, err)
		}
	}
	e.release()
	return bc, e
}

// decomposeAt8 is the decomposition the direction tests sweep.
func decomposeAt8(t *testing.T, g *graph.Graph) *decompose.Decomposition {
	t.Helper()
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestHybridSweepBitNeutral pins the direction-optimizing sweep's bit
// neutrality claim (bfsRoot), forward and backward: never going bottom-up
// (the backward pass only pulls, every sum off the tape), always going
// bottom-up (every level pushes to its parents, nothing is taped — on the
// lattice too, which is past hybridMinVerts but too sparse for the rule to
// sweep anything but top-down) and the edge-volume rule produce the same bits,
// which are Compute's with every sub-graph one unit (SchedulerStatic), the
// schedule sweepForced runs. The forced runs
// must really differ — no bottom-up level and no push in the one, both in the
// other — and the sub-graphs that push must include articulation-point roots
// and γ seeds, the terms that fold in after the pushed sums, and both orders:
// the big community graph's top has a hub and is swept under the ids
// decompose's relabel chose, the lattice's and the uniform random graph's
// under id order, and the push adds a parent's terms in its pull's order on
// either because rows ascend on either.
func TestHybridSweepBitNeutral(t *testing.T) {
	var apRoots, gammaSeeds int
	layouts := map[bool]int{}
	for name, g := range hybridFixtures() {
		ref, err := Compute(g, Options{Workers: 1, Threshold: 8, Scheduler: SchedulerStatic})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := decomposeAt8(t, g)
		for _, force := range []direction{dirTopDown, dirBottomUp, dirAuto} {
			got, e := sweepForced(t, d, force)
			bcBitsEqual(t, fmt.Sprintf("%s direction %d vs Compute", name, force), ref, got)
			big := name == "er" || name == "lattice" || name == "socialDirBig"
			switch {
			case force == dirTopDown && (e.bottomUpLevels != 0 || e.pushedLevels != 0):
				t.Fatalf("%s: top-down run took %d bottom-up levels and pushed %d", name, e.bottomUpLevels, e.pushedLevels)
			case force == dirBottomUp && big && (e.bottomUpLevels == 0 || e.pushedLevels == 0):
				t.Fatalf("%s: forced bottom-up run took %d bottom-up levels and pushed %d; the fixture is vacuous",
					name, e.bottomUpLevels, e.pushedLevels)
			case force == dirAuto && e.pushedLevels > e.bottomUpLevels:
				t.Fatalf("%s: the rule pushed %d levels but discovered only %d bottom-up", name, e.pushedLevels, e.bottomUpLevels)
			}
			if force != dirBottomUp {
				continue
			}
			for _, sg := range d.Subgraphs {
				if len(sg.Roots) < hybridMinVerts {
					continue
				}
				layouts[sg.Relabelled()]++
				for _, r := range sg.Roots {
					if sg.IsArt[r] {
						apRoots++
					}
					if !g.Directed() && sg.Gamma[r] > 0 {
						gammaSeeds++
					}
				}
			}
		}
	}
	if layouts[false] == 0 || layouts[true] == 0 {
		t.Fatalf("%d pushing sub-graphs in id order and %d relabelled: one order went untested", layouts[false], layouts[true])
	}
	if apRoots == 0 || gammaSeeds == 0 {
		t.Fatalf("pushing sub-graphs hold %d articulation-point roots and %d γ-seeded vertices: one case went untested", apRoots, gammaSeeds)
	}
}

// sweepShape sums, over every root d's sweeps start from, the out-arcs of the
// root's deepest BFS level — the scan the backward pass skips — and the arcs of
// its BFS DAG, those that land exactly one level down.
func sweepShape(d *decompose.Decomposition) (deepestOut, dagArcs int64) {
	for _, sg := range d.Subgraphs {
		dist := make([]int32, sg.NumVerts())
		for _, s := range sg.Roots {
			for l := range dist {
				dist[l] = -1
			}
			dist[s] = 0
			queue := []int32{s}
			var deepest, out int64
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				if int64(dist[v]) > deepest {
					deepest, out = int64(dist[v]), 0
				}
				out += int64(len(sg.Out(v)))
				for _, w := range sg.Out(v) {
					if dist[w] < 0 {
						dist[w] = dist[v] + 1
						queue = append(queue, w)
					}
					if dist[w] == dist[v]+1 {
						dagArcs++
					}
				}
			}
			deepestOut += out
		}
	}
	return deepestOut, dagArcs
}

// TestDirectionSwitchNeverScansMore pins the work bound the edge-volume rule
// exists for, in both halves of a sweep. Forward: the passes never scan more
// (arcs plus bitset words) than pure top-down sweeps of the same roots would.
// Backward: a pull reads its vertex's DAG arcs off the tape and nothing else,
// so pulling everywhere scans exactly the sweeps' DAG arcs (none leaves a
// deepest level); under the rule a pushing level pays for every in-arc, which
// may be more than its parents' stretches but is less than their out-rows
// (that is when the rule fires), so the pass never scans more than every
// visited vertex's out-arcs but the deepest level's — what a pull had to scan
// before there was a tape. A deep narrow lattice is too sparse for the rule to
// sweep it hybrid at all, on a directed community graph bottom-up and push
// levels rarely pay; on an R-MAT they must fire and scan strictly less.
func TestDirectionSwitchNeverScansMore(t *testing.T) {
	fix := hybridFixtures()
	for name, g := range map[string]*graph.Graph{
		"lattice":      fix["lattice"],
		"socialDirBig": fix["socialDirBig"],
		"rmat":         gen.RMAT(10, 8, 0.57, 0.19, 0.19, false, 5),
	} {
		d := decomposeAt8(t, g)
		deepestOut, dagArcs := sweepShape(d)
		_, never := sweepForced(t, d, dirTopDown)
		_, auto := sweepForced(t, d, dirAuto)
		if never.examined != never.traversed {
			t.Fatalf("%s: top-down examined %d arcs, traversed %d", name, never.examined, never.traversed)
		}
		if auto.traversed != never.traversed {
			t.Fatalf("%s: traversed depends on direction: %d vs %d", name, auto.traversed, never.traversed)
		}
		if auto.examined > never.examined {
			t.Fatalf("%s: the direction rule scanned %d, pure top-down %d", name, auto.examined, never.examined)
		}
		if never.backScanned != dagArcs {
			t.Fatalf("%s: pulling everywhere scanned %d arcs backward, the sweeps' DAGs hold %d", name, never.backScanned, dagArcs)
		}
		outRows := never.traversed - deepestOut
		if auto.backScanned > outRows {
			t.Fatalf("%s: the direction rule scanned %d arcs backward, the out-rows above the deepest levels hold %d", name, auto.backScanned, outRows)
		}
		if name == "rmat" && (auto.bottomUpLevels == 0 || auto.examined >= never.examined ||
			auto.pushedLevels == 0 || auto.backScanned >= outRows) {
			t.Fatalf("rmat: %d bottom-up levels, scanned %d vs top-down %d; %d pushed levels, scanned %d backward vs out-rows %d — the rule never fired",
				auto.bottomUpLevels, auto.examined, never.examined, auto.pushedLevels, auto.backScanned, outRows)
		}
		t.Logf("%s: forward %d (top-down %d), %d bottom-up levels; backward %d (DAG arcs %d, out-rows %d), %d pushed levels",
			name, auto.examined, never.examined, auto.bottomUpLevels, auto.backScanned, dagArcs, outRows, auto.pushedLevels)
	}
}

// TestHybridGate pins which sub-graphs the rule sweeps direction-optimizing:
// those past hybridMinVerts with at least hybridMinDegree swept arcs per swept
// vertex (sweepsHybrid). Every family's top sub-graph is past the size bound,
// so its density decides: a lattice and a directed community graph sweep
// top-down — no bottom-up level, no transpose built — and an undirected
// community graph, an R-MAT and a random graph of 6 arcs per vertex sweep
// hybrid and take bottom-up levels; the census says the same of each.
func TestHybridGate(t *testing.T) {
	fix := hybridFixtures()
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		hybrid bool
	}{
		{"lattice", fix["lattice"], false},
		{"socialDir", gen.SocialLike(gen.SocialParams{
			N: 2000, AvgDeg: 5, Communities: 4, TopShare: 0.6, LeafFrac: 0.3,
			Directed: true, Reciprocity: 0.3, Seed: 4}), false},
		{"community", gen.SocialLike(gen.SocialParams{
			N: 2000, AvgDeg: 10, Communities: 6, TopShare: 0.5, LeafFrac: 0.5, Seed: 8}), true},
		{"rmat", gen.RMAT(10, 8, 0.57, 0.19, 0.19, false, 5), true},
		{"er6", gen.ErdosRenyi(600, 1800, false, 7), true},
	} {
		d := decomposeAt8(t, c.g)
		top := d.Subgraphs[d.TopIndex]
		swept, arcs := len(top.Roots), top.NumArcs()
		mean := float64(arcs) / float64(swept)
		if swept < hybridMinVerts || (mean >= float64(hybridMinDegree)) != c.hybrid {
			t.Fatalf("%s: top sub-graph of %d swept vertices, %.2f arcs per swept vertex; the fixture is on the wrong side of the gate",
				c.name, swept, mean)
		}
		var e engine
		scalarOnly(func() {
			e.ensure(top)
			e.runRoots(top, top.Roots, c.g.Directed())
		})
		built := func() bool { // In panics until EnsureIn has built the transpose
			defer func() { _ = recover() }()
			top.In(0)
			return true
		}()
		if e.hybrid != c.hybrid || built != c.hybrid || (e.bottomUpLevels != 0) != c.hybrid {
			t.Fatalf("%s (%.2f arcs per swept vertex): hybrid %v, transpose built %v, %d bottom-up levels; want hybrid %v",
				c.name, mean, e.hybrid, built, e.bottomUpLevels, c.hybrid)
		}
		clear(e.ws.BC)
		e.release()
		if row := BuildCensus(c.name, c.g, d, CensusOptions{RedundancySampleK: -1}).Decomposition.Largest[0]; row.Hybrid != c.hybrid {
			t.Fatalf("%s: census row %+v, want hybrid %v", c.name, row, c.hybrid)
		}
		t.Logf("%s: %d swept, %.2f arcs per swept vertex, hybrid %v, %d bottom-up levels", c.name, swept, mean, c.hybrid, e.bottomUpLevels)
	}
}

// TestUnitsSplitEvenly pins buildUnits' split on inputs shaped like three of
// the benchmark's, with their root budgets: the road lattice and the directed
// community graph at the benchmark's sizes, and a smaller R-MAT under the same
// 128-root budget, whose top sub-graph gets two lane words of roots. The unit
// boundaries are a pure function of (decomposition, budget): the worker count
// in the options and the kernel the units will take do not move them. Each
// sub-graph's units tile its (budgeted) root list in order; a split sub-graph
// has an even number of units unless its lane words cap the count; every unit
// but the last is a whole number of lane words, and their word counts differ
// by at most one, the last no longer than the longest. The lattice's and the
// community graph's tops are split, and the budgeted R-MAT top keeps its two
// one-word units.
func TestUnitsSplitEvenly(t *testing.T) {
	for name, fx := range map[string]struct {
		g      *graph.Graph
		budget int
	}{
		"road": {gen.RoadLike(gen.RoadParams{Rows: 63, Cols: 63,
			DeleteFrac: 0.12, SpurFrac: 0.18, SpurLen: 4, Seed: 7}), 0},
		"social": {gen.SocialLike(gen.SocialParams{N: 12000, AvgDeg: 5, Communities: 464,
			TopShare: 0.26, LeafFrac: 0.30, Directed: true, Reciprocity: 0.3, Seed: 7}), 0},
		"scale": {gen.RMAT(13, 8, 0.57, 0.19, 0.19, false, 7), 128},
	} {
		d, err := decompose.Decompose(fx.g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		groups := rootGroups(d, fx.budget)
		units := buildUnits(d, groups, Options{RootBudget: fx.budget})
		for _, opt := range []Options{
			{Workers: 1, RootBudget: fx.budget},
			{Workers: 2, RootBudget: fx.budget},
			{Workers: 3, RootBudget: fx.budget},
			{Workers: 8, RootBudget: fx.budget, RootEngine: EngineMSBFS},
		} {
			again := buildUnits(d, groups, opt)
			if len(again) != len(units) {
				t.Fatalf("%s %+v: %d units, %d under the default options", name, opt, len(again), len(units))
			}
			for i := range units {
				if units[i].sg != again[i].sg || &units[i].roots[0] != &again[i].roots[0] || len(units[i].roots) != len(again[i].roots) {
					t.Fatalf("%s %+v: unit %d is %+v, %+v under the default options", name, opt, i, again[i], units[i])
				}
			}
		}
		totalRoots := d.TotalRoots()
		bySg := map[int][]workUnit{}
		for _, u := range units {
			bySg[u.sg.ID] = append(bySg[u.sg.ID], u)
		}
		for i, sg := range d.Subgraphs {
			nr := rootPrefix(len(sg.Roots), totalRoots, fx.budget)
			us := bySg[i]
			if nr == 0 {
				if len(us) != 0 {
					t.Fatalf("%s: sub-graph %d has no roots to sweep and %d units", name, i, len(us))
				}
				continue
			}
			words := (nr + ws.LaneWidth - 1) / ws.LaneWidth
			if len(us) > 1 && len(us)%2 != 0 && len(us) != words {
				t.Fatalf("%s: sub-graph %d (%d lane words) is split in %d units", name, i, words, len(us))
			}
			lo, minW, maxW := 0, words, 0
			for k, u := range us {
				if len(u.roots) == 0 || &u.roots[0] != &sg.Roots[lo] {
					t.Fatalf("%s: sub-graph %d unit %d has %d roots, want them to start at root %d", name, i, k, len(u.roots), lo)
				}
				lo += len(u.roots)
				if k == len(us)-1 {
					continue
				}
				if len(u.roots)%ws.LaneWidth != 0 {
					t.Fatalf("%s: sub-graph %d unit %d of %d roots is not whole lane words", name, i, k, len(u.roots))
				}
				w := len(u.roots) / ws.LaneWidth
				minW, maxW = min(minW, w), max(maxW, w)
			}
			if lo != nr {
				t.Fatalf("%s: sub-graph %d units end at %d of %d roots", name, i, lo, nr)
			}
			last := us[len(us)-1]
			if lastW := (len(last.roots) + ws.LaneWidth - 1) / ws.LaneWidth; len(us) > 1 && (maxW-minW > 1 || lastW > maxW) {
				t.Fatalf("%s: sub-graph %d chunks of %d–%d lane words and a last one of %d", name, i, minW, maxW, lastW)
			}
		}
		top := bySg[d.TopIndex]
		switch {
		case name == "scale" && len(top) != 2:
			t.Fatalf("scale: the budgeted top sub-graph has %d units, want its 2 lane words", len(top))
		case name != "scale" && (len(top) < 2 || len(top)%2 != 0):
			t.Fatalf("%s: top sub-graph in %d units, want an even number of at least 2", name, len(top))
		}
		t.Logf("%s: top sub-graph in %d units, %d units in all", name, len(top), len(units))
	}
}

// TestUnknownScheduler: an out-of-range Scheduler is an error, never a
// default.
func TestUnknownScheduler(t *testing.T) {
	if _, err := Compute(gen.Path(5), Options{Scheduler: Scheduler(99)}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := Compute(gen.WithRandomWeights(gen.Path(5), 3, 1),
		Options{Scheduler: Scheduler(99)}); err == nil {
		t.Fatal("weighted: unknown scheduler accepted")
	}
}

// TestWeightedSchedulerEquivalent runs the weighted engine under both
// schedulers against the serial weighted Brandes reference.
func TestWeightedSchedulerEquivalent(t *testing.T) {
	g := gen.WithRandomWeights(gen.SocialLike(gen.SocialParams{
		N: 200, AvgDeg: 4, Communities: 4, TopShare: 0.5, LeafFrac: 0.3, Seed: 5}), 4, 9)
	want := brandes.Serial(g)
	for _, p := range []int{1, 2, 4, 8} {
		for _, sched := range []Scheduler{SchedulerDynamic, SchedulerStatic} {
			got, err := Compute(g, Options{Workers: p, Threshold: 8, Scheduler: sched})
			if err != nil {
				t.Fatalf("p=%d %v: %v", p, sched, err)
			}
			if i, ok := bcClose(want, got, 1e-9); !ok {
				t.Fatalf("p=%d %v: differs from weighted Brandes at vertex %d: want %v got %v",
					p, sched, i, want[i], got[i])
			}
		}
	}
}
