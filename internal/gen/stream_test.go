package gen

import (
	"runtime"
	"testing"

	"repro/internal/bcc"
	"repro/internal/graph"
)

func sameGraph(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.Directed() != b.Directed() ||
		a.NumArcs() != b.NumArcs() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		ra, rb := a.Out(int32(u)), b.Out(int32(u))
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}

func testComposite(directed bool, seed int64) CompositeParams {
	return CompositeParams{
		Cores: 4, CoreScale: 6, EdgeFactor: 4,
		A: 0.57, B: 0.19, C: 0.19,
		PeriphFrac: 0.25, ChainLen: 4,
		Directed: directed, Seed: seed,
	}
}

// TestBuildCSRDeterministicAcrossWorkers pins the streamed generators' core
// contract: because every chunk reseeds independently and rows are
// canonicalized after placement, the realized graph is a pure function of
// (stream parameters, seed) — byte-identical at any parallelism.
func TestBuildCSRDeterministicAcrossWorkers(t *testing.T) {
	streams := map[string]func() *Stream{
		"rmat":     func() *Stream { return RMATStream(10, 4, 0.57, 0.19, 0.19, false, 42) },
		"rmat-dir": func() *Stream { return RMATStream(9, 4, 0.57, 0.19, 0.19, true, 7) },
		"composite": func() *Stream {
			return CompositeStream(testComposite(false, 5))
		},
		"composite-dir": func() *Stream {
			return CompositeStream(testComposite(true, 5))
		},
	}
	for name, mk := range streams {
		base := BuildCSR(mk(), 1)
		for _, w := range []int{2, 3, 8} {
			if g := BuildCSR(mk(), w); !sameGraph(base, g) {
				t.Fatalf("%s: graph at workers=%d differs from workers=1", name, w)
			}
		}
		// A different seed must not reproduce the same graph (the reseeding
		// cascade actually reaches the samples).
		if name == "rmat" {
			other := BuildCSR(RMATStream(10, 4, 0.57, 0.19, 0.19, false, 43), 1)
			if sameGraph(base, other) {
				t.Fatalf("%s: seeds 42 and 43 generated identical graphs", name)
			}
		}
	}
}

func TestRMATStreamShape(t *testing.T) {
	g := BuildCSR(RMATStream(10, 8, 0.57, 0.19, 0.19, false, 1), 4)
	if g.NumVertices() != 1<<10 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Duplicate samples collapse, so arcs land below 2*edgeFactor*n but not
	// catastrophically below.
	if g.NumArcs() < 4*1024 || g.NumArcs() > 16*1024 {
		t.Fatalf("arcs = %d out of expected band", g.NumArcs())
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(int32(u)) {
			if !g.HasArc(v, int32(u)) {
				t.Fatalf("undirected stream produced asymmetric arc %d->%d", u, v)
			}
		}
	}
}

// TestCompositeStreamCensus checks the structural guarantee CompositeStream
// documents: with nc chains of length L, at least nc·(L−1) articulation
// points and nc degree-1 leaves, on top of the core mass — the knobs the
// at-scale experiments use to dial a realistic AP/BCC census.
func TestCompositeStreamCensus(t *testing.T) {
	for _, directed := range []bool{false, true} {
		p := testComposite(directed, 5)
		coresTotal := p.Cores << uint(p.CoreScale)
		periph := int(float64(coresTotal) * p.PeriphFrac / (1 - p.PeriphFrac))
		nc := periph / p.ChainLen

		g := BuildCSR(CompositeStream(p), 4)
		if want := coresTotal + nc*p.ChainLen; g.NumVertices() != want {
			t.Fatalf("directed=%v: n = %d, want %d", directed, g.NumVertices(), want)
		}
		if g.Directed() != directed {
			t.Fatalf("directedness lost")
		}
		aps, deg1 := bcc.CountArticulationPoints(g)
		if want := nc * (p.ChainLen - 1); aps < want {
			t.Errorf("directed=%v: %d articulation points, want >= %d from the chain periphery",
				directed, aps, want)
		}
		if deg1 < nc {
			t.Errorf("directed=%v: %d degree-1 leaves, want >= %d chain tails", directed, deg1, nc)
		}
	}
}

// Chains anchor at seed-determined core vertices; the bridge chunk wires
// every core into one tree. R-MAT leaves some core vertices isolated or in
// tiny fragments, so exact connectivity is not guaranteed — but the giant
// component must dominate, or the family would not stress the decomposition
// the way the at-scale experiments assume.
func TestCompositeStreamConnectivity(t *testing.T) {
	p := testComposite(false, 5)
	g := BuildCSR(CompositeStream(p), 4)
	seen := make([]bool, g.NumVertices())
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Out(u) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	if n := g.NumVertices(); count < n*8/10 {
		t.Fatalf("giant component has %d of %d vertices, want >= 80%%", count, n)
	}
}

// TestBuildCSRMemoryBound pins DESIGN §7's bound on generation. BuildCSR
// allocates the degree prefix and the cursors (≈ 16(n+1) bytes), 4 bytes per
// arc yielded, and graph.NewFromCSRUnsorted's fresh 8(n+1)-byte offsets:
// 1.12–1.13× the first two terms here, and nothing that grows with the
// worker count or copies the arcs. The limit is 1.25×; emitting each chunk
// once into per-chunk buffers (2.7×) or giving each worker its own cursors
// (1.32× at two workers) fails it.
func TestBuildCSRMemoryBound(t *testing.T) {
	s := RMATStream(15, 8, 0.57, 0.19, 0.19, false, 1)
	var yielded uint64
	for c := 0; c < s.Chunks; c++ {
		s.Emit(c, func(u, v int32) { yielded++ })
	}
	bound := 16*uint64(s.N+1) + 4*yielded
	for _, w := range []int{1, 2, 8} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g := BuildCSR(s, w)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(g)
		alloc := after.TotalAlloc - before.TotalAlloc
		if ratio := float64(alloc) / float64(bound); ratio > 1.25 {
			t.Errorf("workers=%d: BuildCSR allocated %d bytes, %.2f× the %d-byte CSR-plus-cursors bound (limit 1.25×)",
				w, alloc, ratio, bound)
		}
	}
}

// A negative quadrant probability would silently skew the graph (and break
// rmatSample's counted quadrant), so every R-MAT entry point rejects one.
func TestRMATRejectsNegativeProbabilities(t *testing.T) {
	for _, abc := range [][3]float64{
		{-0.1, 0.5, 0.3}, {0.5, -0.1, 0.3}, {0.5, 0.3, -0.1}, {0.5, 0.4, 0.3}, // d < 0
	} {
		a, b, c := abc[0], abc[1], abc[2]
		for name, build := range map[string]func(){
			"RMAT":       func() { RMAT(4, 2, a, b, c, false, 1) },
			"RMATStream": func() { RMATStream(4, 2, a, b, c, false, 1) },
			"CompositeStream": func() {
				CompositeStream(CompositeParams{Cores: 1, CoreScale: 4, EdgeFactor: 2, A: a, B: b, C: c})
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(a=%v, b=%v, c=%v) did not panic", name, a, b, c)
					}
				}()
				build()
			}()
		}
	}
}
