package graphio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// binFamilies returns the nine graph families the repo's equivalence suites
// standardize on (see internal/core schedFamilies) plus the writer's edge
// cases — the fixture every WriteBinary round trip (ReadBinaryCSR, MmapGraph)
// runs over. "empty" has no vertices; "isolated" has degree-0 rows at both
// ends and in the middle; "wide" is 240 KiB on disk, so its degree table
// crosses the writer's 64 KiB buffer once and the file crosses it three times.
func binFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty": graph.NewFromEdges(0, nil, false),
		"isolated": graph.NewFromEdges(12, []graph.Edge{
			{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}, {From: 7, To: 9}}, false),
		"wide":     gen.ErdosRenyi(20000, 40000, true, 1),
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

// sameCSR reports whether two graphs are identical arc for arc — the
// bit-equality the streamed and mapped loaders must deliver.
func sameCSR(a, b *graph.Graph) bool {
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

// binBytesV1 serializes g in the legacy v1 layout (25-byte unpadded header),
// which WriteBinary no longer emits but every reader must keep accepting —
// WAL snapshots written before the v2 switch are v1 files.
func binBytesV1(g *graph.Graph) []byte {
	flags := uint32(0)
	if g.Directed() {
		flags = 1
	}
	degs := make([]uint32, g.NumVertices())
	for u := range degs {
		degs[u] = uint32(g.OutDegree(int32(u)))
	}
	buf := bytes.NewBuffer(binHeader(flags, uint64(g.NumVertices()), uint64(g.NumArcs()), degs))
	for u := 0; u < g.NumVertices(); u++ {
		binary.Write(buf, binary.LittleEndian, g.Out(int32(u)))
	}
	return buf.Bytes()
}

func TestReadBinaryCSRMatchesReadBinary(t *testing.T) {
	for name, g := range binFamilies() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data := buf.Bytes()
		inmem, err := readBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: readBinary: %v", name, err)
		}
		stream, err := ReadBinaryCSR(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadBinaryCSR: %v", name, err)
		}
		if !sameCSR(g, inmem) {
			t.Fatalf("%s: readBinary round trip diverged", name)
		}
		if !sameCSR(inmem, stream) {
			t.Fatalf("%s: streaming reader differs from in-memory reader", name)
		}
	}
}

func TestReadBinaryCSRV1(t *testing.T) {
	g := gen.ErdosRenyi(60, 150, true, 11)
	stream, err := ReadBinaryCSR(bytes.NewReader(binBytesV1(g)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(g, stream) {
		t.Fatal("v1 stream read diverged from source graph")
	}
}

func TestReadBinaryCSRErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, gen.Path(10)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"bad magic", []byte("NOPE\x01aaaaaaaaaaaaaaaaaaaaaaaa"), "magic"},
		{"truncated degrees", valid[:binHdrSize+5], "degree table truncated"},
		{"truncated adjacency", valid[:len(valid)-3], "adjacency truncated"},
		{"trailing data", append(append([]byte{}, valid...), 0xff), "trailing data"},
		{"degree exceeds arcs", binHeader(0, 2, 1, []uint32{5, 0}), "exceeds arc count"},
		{"degree wraps offset", binHeader(0, 2, 1, []uint32{0x8000_0000, 0}), "wraps the CSR offset"},
		{"degree sum short", append(binHeader(0, 2, 4, []uint32{1, 1}), make([]byte, 8)...), "degree sum"},
		{"implausible n", binHeader(0, 1<<32, 0, nil), "implausible"},
	}
	for _, tc := range cases {
		_, err := ReadBinaryCSR(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}

	// Rows that violate CSR invariants pass the streaming layer and must be
	// caught by graph.NewFromCSR's adoption validation: a self-loop...
	loop := append(binHeader(0, 2, 1, []uint32{1, 0}), 0, 0, 0, 0) // arc 0->0
	if _, err := ReadBinaryCSR(bytes.NewReader(loop)); err == nil ||
		!strings.Contains(err.Error(), "self-loop") {
		t.Errorf("self-loop: got %v", err)
	}
	// ...and an undirected arc without its mirror.
	half := append(binHeader(0, 2, 1, []uint32{1, 0}), 1, 0, 0, 0) // arc 0->1 only
	if _, err := ReadBinaryCSR(bytes.NewReader(half)); err == nil ||
		!strings.Contains(err.Error(), "mirror") {
		t.Errorf("missing mirror: got %v", err)
	}
}

// TestReadBinaryCSRMemoryBound pins the scale pipeline's core memory claim:
// the streaming reader's allocation volume is the returned CSR plus transient
// overhead that does not include an edge list — a small constant multiple of
// the CSR (append-doubling of the adjacency slab plus one fixed chunk
// buffer), and strictly less than the edge-list path on the same file. The
// end-to-end peak-RSS form of this claim (child-process VmHWM per loader:
// 1.11–1.53× the CSR streamed or mmapped, 3.0–4.3× through an edge list) is
// recorded in EXPERIMENTS.md; its harness is deleted, so this test is what
// keeps the allocation profile from regressing.
func TestReadBinaryCSRMemoryBound(t *testing.T) {
	g := gen.ErdosRenyi(1<<15, 1<<18, false, 3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	csr := uint64(8*(g.NumVertices()+1)) + 4*uint64(g.NumArcs())

	measure := func(load func() (*graph.Graph, error)) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		gg, err := load()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(gg)
		return after.TotalAlloc - before.TotalAlloc
	}

	stream := measure(func() (*graph.Graph, error) { return ReadBinaryCSR(bytes.NewReader(data)) })
	inmem := measure(func() (*graph.Graph, error) { return readBinary(bytes.NewReader(data)) })

	if limit := 3*csr + 1<<20; stream > limit {
		t.Errorf("streaming load allocated %d bytes, over the %d-byte bound (csr=%d)", stream, limit, csr)
	}
	if stream >= inmem {
		t.Errorf("streaming load allocated %d bytes, in-memory edge-list load %d — streaming should be cheaper", stream, inmem)
	}

	// With a size hint that matches the header's claim (the LoadFile / mmap
	// -fallback case) the reader preallocates both arrays: allocation volume
	// collapses to the CSR itself plus the chunk buffer, no growth slabs.
	sized := measure(func() (*graph.Graph, error) {
		return readBinaryCSRSized(bytes.NewReader(data), int64(len(data)))
	})
	if limit := csr + 1<<20; sized > limit {
		t.Errorf("size-verified load allocated %d bytes, over the %d-byte bound (csr=%d)", sized, limit, csr)
	}
}

// A size hint that disagrees with the header must not change behavior: the
// reader falls back to geometric growth and produces the identical graph.
func TestReadBinaryCSRSizedHintMismatch(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, false, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, hint := range []int64{-1, 0, 12, int64(len(data)) - 1, int64(len(data)) + 1, int64(len(data))} {
		got, err := readBinaryCSRSized(bytes.NewReader(data), hint)
		if err != nil {
			t.Fatalf("hint=%d: %v", hint, err)
		}
		if !sameCSR(g, got) {
			t.Fatalf("hint=%d: graph differs from source", hint)
		}
	}
}

func FuzzReadBinaryCSR(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, gen.Lollipop(4, 5)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte{}, valid...), 0))
	f.Add(binBytesV1(gen.Path(6)))
	f.Add(binHeader(0, 2, 1, []uint32{5, 0}))
	f.Add(binHeader(0, 4, 1<<30, nil))
	f.Add([]byte("APGR\x02\x00\x00\x00"))
	f.Fuzz(fuzzBinary)
}

// FuzzReadBinary runs the hostile-header seeds of the retired in-memory
// loader through the same check: a path file and its truncation, a bare v1
// magic, nothing at all, a prefix sum past the arc count, a degree that
// would wrap an int32 CSR offset (non-monotonic), and a huge arc count with
// no adjacency payload, which must fail on the degree stream rather than
// allocate per the header's claim.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, gen.Path(3)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("APGR\x01garbage"))
	f.Add([]byte{})
	f.Add(binHeader(0, 2, 1, []uint32{5, 0}))
	f.Add(binHeader(0, 2, 1, []uint32{0x8000_0000, 0}))
	f.Add(binHeader(0, 4, 1<<30, nil))
	f.Fuzz(fuzzBinary)
}

// fuzzBinary is the body of both binary fuzz targets: ReadBinaryCSR must
// never panic, and when it accepts, the lenient oracle must agree.
func fuzzBinary(t *testing.T, data []byte) {
	g, err := ReadBinaryCSR(bytes.NewReader(data))
	if err != nil {
		return
	}
	g2, err := readBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("strict reader accepted what lenient rejected: %v", err)
	}
	if !sameCSR(g, g2) {
		t.Fatal("readers disagree on accepted input")
	}
}

// readBinary is the oracle ReadBinaryCSR is checked against: a lenient
// reader of either format version that rebuilds the rows through
// graph.NewFromEdges, so unsorted or duplicate neighbors in a hand-crafted
// file are tolerated, and that materializes the edge list ReadBinaryCSR
// never does.
func readBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	flags, n, arcs, _, err := readBinHeader(br)
	if err != nil {
		return nil, err
	}
	// Stream the degree table in bounded chunks, validating the derived CSR
	// offsets as they accumulate: a degree that would wrap an int32 offset
	// (non-monotonic in CSR space) or push the prefix sum past the declared
	// arc count is rejected before the adjacency array is ever sized — a
	// hostile header cannot make us allocate ahead of the data it actually
	// ships. (append grows degs geometrically with bytes read, so a
	// truncated stream costs memory proportional to its real length, not to
	// the header's claim.)
	const binChunk = 1 << 16
	degs := make([]uint32, 0, min(n, binChunk))
	buf := make([]uint32, min(n, binChunk))
	var total uint64
	for read := uint64(0); read < n; {
		chunk := buf[:min(n-read, binChunk)]
		if err := binary.Read(br, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		for i, d := range chunk {
			if d > 1<<31-1 {
				return nil, fmt.Errorf("graphio: vertex %d degree %d wraps the CSR offset (non-monotonic)", read+uint64(i), d)
			}
			total += uint64(d)
			if total > arcs {
				return nil, fmt.Errorf("graphio: degree prefix sum %d at vertex %d exceeds arc count %d", total, read+uint64(i), arcs)
			}
		}
		degs = append(degs, chunk...)
		read += uint64(len(chunk))
	}
	if total != arcs {
		return nil, fmt.Errorf("graphio: degree sum %d != arc count %d", total, arcs)
	}
	directed := flags&1 != 0
	// Stream the adjacency the same way, walking the degree table in step;
	// neighbors are range-checked as they arrive.
	var edges []graph.Edge
	abuf := make([]int32, min(arcs, binChunk))
	u, consumed := uint64(0), uint32(0)
	for read := uint64(0); read < arcs; {
		chunk := abuf[:min(arcs-read, binChunk)]
		if err := binary.Read(br, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		for _, v := range chunk {
			for consumed == degs[u] {
				u++
				consumed = 0
			}
			if v < 0 || uint64(v) >= n {
				return nil, fmt.Errorf("graphio: neighbor %d out of range", v)
			}
			if directed || int32(u) <= v {
				edges = append(edges, graph.Edge{From: int32(u), To: v})
			}
			consumed++
		}
		read += uint64(len(chunk))
	}
	return graph.NewFromEdges(int(n), edges, directed), nil
}
