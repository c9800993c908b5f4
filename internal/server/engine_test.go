package server

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// An entry has no sweep kernel to choose: core picks one per work unit, and no
// score can tell which. These tests hold what the registry serves — under the
// rule, which gives the 200-vertex ER fixture's top sub-graph to the lane
// kernel — to the same graph swept with lanes forced onto every unit
// (core.EngineMSBFS) and computed by core.Compute's one-worker path, bit for
// bit.

// erSpec loads a 200-vertex Erdős–Rényi graph inline: essentially one big
// biconnected block, whose sub-graph the kernel rule gives to the lane kernel.
func erSpec(name string) (LoadSpec, *graph.Graph) {
	g := gen.ErdosRenyi(200, 800, false, 3)
	edges := make([][2]int32, 0, g.NumEdges())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int32{e.From, e.To})
	}
	return LoadSpec{Name: name, N: g.NumVertices(), Edges: edges}, g
}

// assertServesKernelFree checks e's current scores against a fresh engine on
// e's current graph with lanes forced and against core.ComputeDecomposed at
// one worker on its decomposition, which adds the sub-graphs' contributions
// in order as an epoch does (core's TestMSBFSEngineBitMatchesScalar holds
// that to the scalar kernel).
func assertServesKernelFree(t *testing.T, e *Entry, threshold int) {
	t.Helper()
	got, err := e.BC()
	if err != nil {
		t.Fatal(err)
	}
	snap := e.inc.Snapshot()
	forced, err := core.NewIncremental(snap.Graph, core.Options{Threshold: threshold, RootEngine: core.EngineMSBFS})
	if err != nil {
		t.Fatal(err)
	}
	lanes := false
	for _, sg := range snap.Decomposition.Subgraphs {
		lanes = lanes || len(sg.Roots) >= 64 && len(sg.Roots)*64*40 <= 2<<20 // core's kernel rule
	}
	if !lanes {
		t.Fatal("no sub-graph of the fixture is within the lane kernel's rule")
	}
	computed, err := core.ComputeDecomposed(snap.Decomposition, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]float64{"forced lanes": forced.BC(), "Compute at one worker": computed} {
		for v := range want {
			if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
				t.Fatalf("vertex %d: served %v, %s %v (bit mismatch)", v, got[v], name, want[v])
			}
		}
	}
}

// TestLoadEngineBitMatchAndEcho: a loaded entry serves the bits of either
// kernel, and its Info echoes no engine — there is none to report.
func TestLoadEngineBitMatchAndEcho(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	spec, _ := erSpec("er")
	e, err := r.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	info := waitState(t, e)
	if info.State != StateReady {
		t.Fatalf("state %s (%s)", info.State, info.Error)
	}
	assertServesKernelFree(t, e, 0)
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "engine") {
		t.Fatalf("entry info still reports an engine: %s", data)
	}
}

// TestMutateEngineBitMatch: the epochs mutations publish — each a re-sweep of
// the sub-graphs the edit changed, through the rule's kernel — are the bits of
// either kernel too.
func TestMutateEngineBitMatch(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	spec, g := erSpec("er")
	e, err := r.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("state %s (%s)", info.State, info.Error)
	}
	// A removal, a new chord, and an edge to a vertex ER left isolated — a
	// structural insertion — when there is one.
	type mut struct {
		add  bool
		u, v int32
	}
	first := g.Edges()[0]
	muts := []mut{{false, first.From, first.To}, {true, 0, firstNonNeighbour(g, 0)}}
	for v := graph.V(0); int(v) < g.NumVertices(); v++ {
		if g.OutDegree(v) == 0 {
			muts = append(muts, mut{true, 1, v})
			break
		}
	}
	for _, m := range muts {
		if _, err := r.Mutate(e, m.add, m.u, m.v); err != nil {
			t.Fatalf("mutate %+v: %v", m, err)
		}
		assertServesKernelFree(t, e, 0)
	}
}

// TestRecoverIgnoresLegacyEngineField: a data directory written when entries
// still had an engine — its meta.json says "engine":"msbfs" — opens, serves
// scores bit-identical to a fresh engine on the same graph, and the sidecar
// written next no longer carries the field.
func TestRecoverIgnoresLegacyEngineField(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir)
	spec, g := erSpec("old")
	e, err := r1.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("load: state %s (%s)", info.State, info.Error)
	}
	threshold := 0
	r1.Close()

	metaPath := filepath.Join(dir, "old", metaFile)
	legacy := `{
  "schema": 1,
  "name": "old",
  "threshold": ` + strconv.Itoa(threshold) + `,
  "directed": false,
  "saved_at": "2026-01-02T03:04:05Z",
  "engine": "msbfs"
}
`
	if err := os.WriteFile(metaPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := durableRegistry(t, dir)
	names, err := r2.Recover()
	if err != nil {
		t.Fatalf("recover with a legacy sidecar: %v", err)
	}
	if len(names) != 1 || names[0] != "old" {
		t.Fatalf("recovered %v, want [old]", names)
	}
	e2 := r2.Get("old")
	if info := waitState(t, e2); info.State != StateReady || info.Threshold != threshold {
		t.Fatalf("recovered state %s threshold %d (%s)", info.State, info.Threshold, info.Error)
	}
	fresh, err := core.NewIncremental(g, core.Options{Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.BC()
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range fresh.BC() {
		if math.Float64bits(want) != math.Float64bits(got[v]) {
			t.Fatalf("vertex %d: recovered %v, fresh engine %v", v, got[v], want)
		}
	}
	assertServesKernelFree(t, e2, threshold)
	// A mutation and a clean close rewrite the sidecar (compaction).
	if _, err := r2.Mutate(e2, true, 0, firstNonNeighbour(g, 0)); err != nil {
		t.Fatal(err)
	}
	r2.Close()
	data, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "engine") {
		t.Fatalf("the sidecar was not rewritten, or still carries an engine:\n%s", data)
	}
}

func firstNonNeighbour(g *graph.Graph, u graph.V) int32 {
	for v := graph.V(0); int(v) < g.NumVertices(); v++ {
		if v != u && !g.HasArc(u, v) {
			return v
		}
	}
	return -1
}
