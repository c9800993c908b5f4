package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/brandes"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ws"
)

// engineFamilies is the nine-family suite plus a disconnected graph (two
// components, isolated vertices) — the batched kernel must handle lanes that
// never reach most of the sub-graph.
func engineFamilies() map[string]*graph.Graph {
	fams := schedFamilies()
	fams["disconnected"] = graph.NewFromEdges(40, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0},
		{From: 2, To: 4}, {From: 4, To: 5}, {From: 5, To: 6},
		{From: 10, To: 11}, {From: 11, To: 12}, {From: 12, To: 10},
		{From: 12, To: 13}, {From: 13, To: 14}, {From: 14, To: 15},
	}, false)
	return fams
}

// setKernelRule moves the kernel rule's three bounds (engine.go) for the rest
// of the test. Budget 0 is the scalar kernel everywhere; EngineMSBFS lifts the
// budget, never the two lower bounds.
func setKernelRule(t testing.TB, budget, minVerts, minLanes int) {
	t.Helper()
	b, v, l := laneBudget, msbfsMinVerts, msbfsMinLanes
	laneBudget, msbfsMinVerts, msbfsMinLanes = budget, minVerts, minLanes
	t.Cleanup(func() { laneBudget, msbfsMinVerts, msbfsMinLanes = b, v, l })
}

// scalarOnly is budget 0 for the duration of fn.
func scalarOnly(fn func()) {
	old := laneBudget
	laneBudget = 0
	defer func() { laneBudget = old }()
	fn()
}

// computeScalar is Compute with the lane kernel out of reach — the reference
// the rule and the forced-lane runs are held to.
func computeScalar(t *testing.T, g *graph.Graph, opt Options) (bc []float64) {
	t.Helper()
	opt.RootEngine = 0
	var err error
	scalarOnly(func() { bc, err = Compute(g, opt) })
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

func bcBitsEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: engines differ at vertex %d: %v vs %v (bits %#x vs %#x)",
				name, v, want[v], got[v],
				math.Float64bits(want[v]), math.Float64bits(got[v]))
		}
	}
}

// TestMSBFSEngineBitMatchesScalar is the kernel determinism suite: on every
// family (directed and disconnected included) and at every worker count, the
// rule's mix of kernels and lanes forced on every unit both return the bits
// of the scalar kernel everywhere (budget 0) at the same worker count — the
// pin that lets runRoots pick a kernel per unit with no caller involved.
// (Worker count itself legitimately shapes unit boundaries and hence
// partial-sum association; the invariant is that the KERNEL never does.)
func TestMSBFSEngineBitMatchesScalar(t *testing.T) {
	for name, g := range engineFamilies() {
		for _, p := range []int{1, 2, 4, 8} {
			want := computeScalar(t, g, Options{Workers: p, Threshold: 8})
			for _, eng := range []RootEngine{0, EngineMSBFS} {
				got, err := Compute(g, Options{Workers: p, Threshold: 8, RootEngine: eng})
				if err != nil {
					t.Fatalf("%s p=%d engine %d: %v", name, p, eng, err)
				}
				bcBitsEqual(t, fmt.Sprintf("%s p=%d engine %d", name, p, eng), want, got)
			}
		}
	}
}

// TestMSBFSEngineMatchesBrandes anchors the batched engine to ground truth
// (two engines could be bit-equal and both wrong).
func TestMSBFSEngineMatchesBrandes(t *testing.T) {
	for name, g := range engineFamilies() {
		want := brandes.Serial(g)
		got, err := Compute(g, Options{
			Workers: 4, Threshold: 8, RootEngine: EngineMSBFS,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i, ok := bcClose(want, got, 1e-9); !ok {
			t.Fatalf("%s: msbfs differs from Brandes at vertex %d: want %v got %v",
				name, i, want[i], got[i])
		}
	}
}

// TestMSBFSBatchRemainder pins the partial-batch path above the break-even
// gates: a sub-graph whose root count is not a multiple of the lane width
// must route its tail roots through a partial-word batch and still match the
// scalar engine bit for bit.
func TestMSBFSBatchRemainder(t *testing.T) {
	g := gen.ErdosRenyi(500, 1500, false, 3)
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	over := false
	for _, sg := range d.Subgraphs {
		if useLanes(sg, len(sg.Roots), false, false) && len(sg.Roots)%ws.LaneWidth != 0 {
			over = true
		}
	}
	if !over {
		t.Fatal("test graph has no sub-graph exercising a partial batch above the gates")
	}
	for _, p := range []int{1, 8} {
		want := computeScalar(t, g, Options{Workers: p, Threshold: 8})
		for _, eng := range []RootEngine{0, EngineMSBFS} {
			got, err := ComputeDecomposed(d, Options{Workers: p, Threshold: 8, RootEngine: eng})
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			bcBitsEqual(t, "er500", want, got)
		}
	}
}

// TestMSBFSEngineDeterministic reruns the batched engine at p=8 and demands
// bit-identical output — the scheduler's deterministic merge must hold with
// batch-granular units too.
func TestMSBFSEngineDeterministic(t *testing.T) {
	g := schedFamilies()["social"]
	base, err := Compute(g, Options{Workers: 8, Threshold: 8, RootEngine: EngineMSBFS})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		got, err := Compute(g, Options{Workers: 8, Threshold: 8, RootEngine: EngineMSBFS})
		if err != nil {
			t.Fatal(err)
		}
		bcBitsEqual(t, "social rerun", base, got)
	}
}

// TestDrainWorkerCountBitNeutral pins the drain's bit-neutrality in the
// worker count: one chunked unit list, drained by one worker and by eight,
// flushes to identical bits, under the rule, with lanes forced and with none.
// Each unit fills a slice of its own and the flush adds them in list order,
// whoever swept them.
func TestDrainWorkerCountBitNeutral(t *testing.T) {
	oldBudget := laneBudget
	t.Cleanup(func() { laneBudget = oldBudget })
	for name, g := range engineFamilies() {
		d, err := decompose.Decompose(g, decompose.Options{Threshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			eng    RootEngine
			budget int
		}{{0, oldBudget}, {EngineMSBFS, oldBudget}, {0, 0}} {
			laneBudget = c.budget
			opt := Options{RootEngine: c.eng}
			var scores [2][]float64
			for i, p := range []int{1, 8} {
				units := buildUnits(d, rootGroups(d, 0), opt)
				if _, overflow := drainUnits(units, p, g, opt); overflow {
					t.Fatalf("%s/%+v p=%d: overflow", name, c, p)
				}
				scores[i] = make([]float64, g.NumVertices())
				for _, u := range units {
					flushLocal(scores[i], u.sg, u.local)
				}
			}
			bcBitsEqual(t, fmt.Sprintf("%s/%+v", name, c), scores[0], scores[1])
		}
	}
}

// TestStaticSchedulerHonoursMSBFS: forced lanes apply under either unit
// granularity. Scores cannot tell (the kernels are bit-identical), so look at
// the arena: after a one-worker run from a fresh pool with the rule's budget
// at 0, its only sweep must carry the lane arrays the batched kernel grows.
func TestStaticSchedulerHonoursMSBFS(t *testing.T) {
	g := schedFamilies()["er"]                        // one 300-vertex block: far above the gates
	setKernelRule(t, 0, msbfsMinVerts, msbfsMinLanes) // the rule alone would stay scalar
	want, err := Compute(g, Options{Workers: 1, Scheduler: SchedulerStatic})
	if err != nil {
		t.Fatal(err)
	}
	sweepPool = ws.Pool{}
	got, err := Compute(g, Options{Workers: 1, Scheduler: SchedulerStatic, RootEngine: EngineMSBFS})
	if err != nil {
		t.Fatal(err)
	}
	bcBitsEqual(t, "static+msbfs", want, got)
	s := sweepPool.Get(0)
	defer sweepPool.Put(s)
	if s.LaneSeen == nil {
		t.Fatal("SchedulerStatic with EngineMSBFS ran the scalar kernel")
	}
}

// TestRunRootsBatchBitMatch pins what lets a work unit hold any number of
// roots: handing runRoots a batch of them — which the rule puts through the
// lane kernel above the break-even gates — is bit-identical to handing them
// over one at a time, which is always the scalar kernel.
func TestRunRootsBatchBitMatch(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"social": schedFamilies()["social"], // above the gates
		"path":   gen.Path(20),              // below: scalar fallback path
	} {
		d, err := decompose.Decompose(g, decompose.Options{Threshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		var one, batch engine
		for _, sg := range d.Subgraphs {
			n := sg.NumVerts()
			one.ensure(sg)
			for i := range sg.Roots {
				one.runRoots(sg, sg.Roots[i:i+1], g.Directed())
			}
			batch.ensure(sg)
			batch.runRoots(sg, sg.Roots, g.Directed())
			a, b := one.ws.BC[:n], batch.ws.BC[:n]
			for l := range a {
				if math.Float64bits(a[l]) != math.Float64bits(b[l]) {
					t.Fatalf("%s sg %d vertex %d: one by one %v, batched %v", name, sg.ID, l, a[l], b[l])
				}
			}
			clear(a)
			clear(b)
		}
		if tr1, tr2 := one.traversed, batch.traversed; tr1 != tr2 {
			t.Fatalf("%s: traversed metric diverged: one by one %d, batched %d", name, tr1, tr2)
		}
		// bfsRoot alone counts what it examined, so the lane kernel shows as
		// a batched run that left less of it to bfsRoot.
		if lanes := batch.examined < one.examined; lanes != (name == "social") {
			t.Fatalf("%s: batched run took the lane kernel: %v (bfsRoot examined %d arcs batched, %d one by one)",
				name, lanes, batch.examined, one.examined)
		}
		one.release()
		batch.release()
	}
}

// TestRootEngineValidation: the option has its zero value and the probe's;
// anything else is an error from every entry point, never a default.
func TestRootEngineValidation(t *testing.T) {
	for _, re := range []RootEngine{-1, 2, 99} {
		if _, err := Compute(gen.Path(4), Options{RootEngine: re}); err == nil {
			t.Fatalf("Compute accepted root engine %d", re)
		}
		if _, err := NewIncremental(gen.Path(4), Options{RootEngine: re}); err == nil {
			t.Fatalf("NewIncremental accepted root engine %d", re)
		}
	}
	for _, re := range []RootEngine{0, EngineMSBFS} {
		if _, err := Compute(gen.Path(4), Options{RootEngine: re}); err != nil {
			t.Fatalf("root engine %d: %v", re, err)
		}
	}
}
