package graphio

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// TestLoadSizedAllocatesOnlyTheGraph pins what Load of a size-verified .bin
// allocates: the offset array, the payload words the graph adopts (degree
// table included), and graph.NewFromCSR's 8n-byte mirror scratch on an
// undirected graph — plus at most 4 KiB for the file handle, the header and
// size-class rounding. A chunk or bufio buffer, or a second copy of the
// adjacency, does not fit.
func TestLoadSizedAllocatesOnlyTheGraph(t *testing.T) {
	fams := binFamilies()
	for _, name := range []string{"social", "socialDir"} {
		g := fams[name]
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		path := writeBin(t, name+".bin", buf.Bytes())
		n, arcs := uint64(g.NumVertices()), uint64(g.NumArcs())
		want := 8*(n+1) + 4*(n+arcs)
		if !g.Directed() {
			want += 8 * n
		}

		// TotalAlloc is process-wide: a runtime or test-harness goroutine
		// allocating during one Load reads as the Load's, so the bound holds
		// the least of five GC-then-Load measurements.
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got, _, err := Load(path, "", false, false)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCSR(g, got) {
				t.Fatalf("%s: loaded graph differs from source", name)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > want+4<<10 {
			t.Errorf("%s: Load allocated %d bytes, over the graph's %d + 4 KiB", name, least, want)
		}
	}
}

// A v1 file of the empty graph is its 25-byte header alone, shorter than a
// v2 header: MmapGraph must read it through the fallback, not fail reading
// 28 header bytes.
func TestMmapGraphShortV1(t *testing.T) {
	g := binFamilies()["empty"]
	mg, err := MmapGraph(writeBin(t, "empty.bin", binBytesV1(g)))
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	if mg.ZeroCopy || !sameCSR(g, mg.Graph) {
		t.Errorf("ZeroCopy %v, same graph %v; want a fallback load of the empty graph", mg.ZeroCopy, sameCSR(g, mg.Graph))
	}
}
