package core

import (
	"math"
	"testing"

	"repro/internal/brandes"
	"repro/internal/gen"
	"repro/internal/graph"
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

// TestSchedulerStaticDynamicEquivalent cross-checks the two unit
// granularities against each other at several worker counts, and pins what
// whole-sub-graph units buy: SchedulerStatic's unit list does not depend on
// the worker count, so its scores are bit-identical at 1 and 8 workers.
func TestSchedulerStaticDynamicEquivalent(t *testing.T) {
	forceParallel(t)
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
	forceParallel(t)
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

// TestHybridSweepBitNeutral pins the direction-optimizing sweep's bit
// neutrality claim (bfsRoot): forcing bottom-up levels on,
// off, or at an aggressive threshold never changes a single output bit.
func TestHybridSweepBitNeutral(t *testing.T) {
	for name, g := range schedFamilies() {
		var ref []float64
		// 0 = default frac, -1 = disabled, 0.01 = nearly always bottom-up
		// once the frontier is 1% of the unvisited set.
		for _, frac := range []float64{-1, 0, 0.01} {
			got, err := Compute(g, Options{
				Workers: 1, Threshold: 8, BottomUpFrac: frac,
			})
			if err != nil {
				t.Fatalf("%s frac=%v: %v", name, frac, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			for v := range ref {
				if math.Float64bits(got[v]) != math.Float64bits(ref[v]) {
					t.Fatalf("%s frac=%v: bc[%d] = %v, disabled-hybrid run %v",
						name, frac, v, got[v], ref[v])
				}
			}
		}
	}
}

// TestUnknownScheduler: an out-of-range Scheduler is an error, never a
// default.
func TestUnknownScheduler(t *testing.T) {
	if _, err := Compute(gen.Path(5), Options{Scheduler: Scheduler(99)}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := ComputeWeighted(gen.WithRandomWeights(gen.Path(5), 3, 1),
		Options{Scheduler: Scheduler(99)}); err == nil {
		t.Fatal("weighted: unknown scheduler accepted")
	}
	if SchedulerDynamic.String() != "dynamic" || SchedulerStatic.String() != "static" {
		t.Fatal("scheduler names changed; benchmark record keys depend on them")
	}
}

// TestWeightedSchedulerEquivalent runs the weighted engine under both
// schedulers against the serial weighted Brandes reference.
func TestWeightedSchedulerEquivalent(t *testing.T) {
	forceParallel(t)
	g := gen.WithRandomWeights(gen.SocialLike(gen.SocialParams{
		N: 200, AvgDeg: 4, Communities: 4, TopShare: 0.5, LeafFrac: 0.3, Seed: 5}), 4, 9)
	want := brandes.WeightedSerial(g)
	for _, p := range []int{1, 2, 4, 8} {
		for _, sched := range []Scheduler{SchedulerDynamic, SchedulerStatic} {
			got, err := ComputeWeighted(g, Options{Workers: p, Threshold: 8, Scheduler: sched})
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
