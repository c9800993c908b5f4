package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment line
% also a comment

10 20
20 30
10 30
`
	g, orig, err := ReadEdgeList(strings.NewReader(in), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if orig[0] != 10 || orig[1] != 20 || orig[2] != 30 {
		t.Fatalf("orig = %v", orig)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",    // too few fields
		"a b\n",  // non-numeric
		"1 x\n",  // non-numeric second
		"-1 2\n", // negative id
		"3 -7\n", // negative id
	}
	for _, in := range cases {
		for _, weighted := range []bool{false, true} {
			if _, _, err := ReadEdgeList(strings.NewReader(in), true, weighted); err == nil {
				t.Fatalf("input %q (weighted %v): expected error", in, weighted)
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(80, 200, true, 5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, orig, err := ReadEdgeList(&buf, true, false)
	if err != nil {
		t.Fatal(err)
	}
	// ReadEdgeList densifies ids in appearance order, so compare through the
	// returned mapping: g2's vertex i is g's vertex orig[i].
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count %d != %d", g2.NumEdges(), g.NumEdges())
	}
	for u := 0; u < g2.NumVertices(); u++ {
		for _, v := range g2.Out(int32(u)) {
			if !g.HasArc(int32(orig[u]), int32(orig[v])) {
				t.Fatalf("arc %d->%d not in original", orig[u], orig[v])
			}
		}
	}
}

func TestReadDIMACS(t *testing.T) {
	in := `c road network fragment
p sp 4 5
a 1 2 7
a 2 1 7
a 2 3 4
a 3 2 4
a 1 4 2
`
	g, err := ReadDIMACS(strings.NewReader(in), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Paired arcs collapse: edges {0,1},{1,2},{0,3}.
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3", g.NumEdges())
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []string{
		"a 1 2 3\n",           // arc before problem line
		"p sp x 3\n",          // bad n
		"p sp 2 1\na 1\n",     // short arc line
		"p sp 2 1\na 1 5 1\n", // out of range
		"p sp 2 1\nq 1 2\n",   // unknown record
		"c only comments\n",   // no problem line
		"p sp 2 1\na 1 z 1\n", // bad endpoint
		"p sp -1 0\n",         // negative vertex count
		// A vertex count past 2^31 sizes an offset array no file backs.
		"p sp 3000000000 1\na 2500000000 1 1\n",
		"p sp 2147483649 0\n",
	}
	for _, in := range cases {
		for _, weighted := range []bool{false, true} {
			if _, err := ReadDIMACS(strings.NewReader(in), false, weighted); err == nil {
				t.Fatalf("input %q (weighted %v): expected error", in, weighted)
			}
		}
	}
	for _, in := range []string{"p sp -1 0\n", "p sp 3000000000 1\n"} {
		_, err := ReadDIMACS(strings.NewReader(in), false, false)
		if err == nil || !strings.Contains(err.Error(), "line 1: vertex count") {
			t.Fatalf("input %q: got %v, want a line-1 vertex-count error", in, err)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinaryCSR(bytes.NewReader([]byte("not a graph file at all"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := ReadBinaryCSR(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
	// Truncated valid prefix.
	g := gen.Path(10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinaryCSR(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestBinaryRejectsBadOffsets(t *testing.T) {
	// Degree prefix sum exceeding the declared arc count must fail during
	// the degree stream, before the adjacency array is sized.
	bad := binHeader(0, 3, 2, []uint32{1, 5, 0})
	if _, err := ReadBinaryCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("expected prefix-sum-exceeds-arcs error")
	}
	// A degree that would wrap an int32 CSR offset is non-monotonic in
	// offset space and must be rejected outright.
	wrap := binHeader(0, 2, 1<<32, []uint32{0x8000_0000, 0x8000_0000})
	if _, err := ReadBinaryCSR(bytes.NewReader(wrap)); err == nil {
		t.Fatal("expected offset-wrap error")
	}
	// Degree sum smaller than the header's arc claim is also inconsistent.
	short := binHeader(0, 2, 10, []uint32{1, 1})
	if _, err := ReadBinaryCSR(bytes.NewReader(short)); err == nil {
		t.Fatal("expected degree-sum mismatch error")
	}
	// A header claiming a huge arc count with no payload must fail cheaply
	// on the missing degree stream instead of allocating per the claim.
	huge := binHeader(0, 1<<20, 1<<39, nil)
	if _, err := ReadBinaryCSR(bytes.NewReader(huge)); err == nil {
		t.Fatal("expected error for payloadless huge header")
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	g := gen.Caveman(3, 4, false)

	elPath := filepath.Join(dir, "g.txt")
	if err := SaveFile(elPath, "", g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(elPath, "", false)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)

	binPath := filepath.Join(dir, "g.bin")
	if err := SaveFile(binPath, "", g); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadFile(binPath, "", false)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g3)

	if err := SaveFile(filepath.Join(dir, "g.gr"), "", g); err == nil {
		t.Fatal("expected error writing DIMACS")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.txt"), "", false); err == nil {
		t.Fatal("expected error for missing file")
	}
	if _, err := LoadFile(elPath, "nope", false); err == nil {
		t.Fatal("expected unknown-format error")
	}
}

// Property: binary round trip preserves any small random graph exactly.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		g := gen.ErdosRenyi(40, 100, directed, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinaryCSR(&buf)
		if err != nil {
			return false
		}
		return sameGraph(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func sameGraph(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() || a.Directed() != b.Directed() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		x, y := a.Out(int32(u)), b.Out(int32(u))
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

func assertSameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if !sameGraph(a, b) {
		t.Fatalf("graphs differ: %v vs %v", a, b)
	}
}

func TestLoadSaveGraphMLJSON(t *testing.T) {
	dir := t.TempDir()
	g := gen.Caveman(3, 4, false)
	for _, name := range []string{"g.graphml", "g.json"} {
		p := filepath.Join(dir, name)
		if err := SaveFile(p, "", g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := LoadFile(p, "", false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameGraph(t, g, g2)
	}
}

// TestWriteBinaryDigest pins WriteBinary's bytes across commits: the sha256
// of every binFamilies graph written in name order.
func TestWriteBinaryDigest(t *testing.T) {
	fams := binFamilies()
	var names []string
	for name := range fams {
		names = append(names, name)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, name := range names {
		if err := WriteBinary(h, fams[name]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "e3834223a7f20418eac0501b78c92a2892b04dfc6f562a4b4251e2d5ed55a95a"; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}

// failAfter accepts k bytes, then fails every write.
type failAfter struct{ k int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.k {
		f.k -= len(p)
		return len(p), nil
	}
	n := f.k
	f.k = 0
	return n, errSink
}

// A sink that fails part way must fail WriteBinary, wherever the failure
// lands: in the header, the degree table, the adjacency, or the last flush.
func TestWriteBinaryReportsWriteErrors(t *testing.T) {
	g := binFamilies()["wide"]
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	size, degEnd := buf.Len(), binHdrSize+4*g.NumVertices()
	if degEnd <= streamChunk || size <= 3*streamChunk {
		t.Fatalf("wide is %d bytes with its degree table ending at %d: it must cross the %d-byte buffer in both", size, degEnd, streamChunk)
	}
	for name, k := range map[string]int{
		"header":    10,
		"degrees":   degEnd - 6,
		"adjacency": degEnd + 4*int(g.NumArcs())/2,
		"flush":     size - 1,
	} {
		if err := WriteBinary(&failAfter{k}, g); !errors.Is(err, errSink) {
			t.Errorf("%s (sink fails after %d of %d bytes): err = %v, want %v", name, k, size, err, errSink)
		}
	}
}
