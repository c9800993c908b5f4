package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
)

// csrDigest is the sha256 of g's CSR: n, the directed flag, the offsets
// (little-endian int64) and the adjacency (little-endian int32).
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	var b [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	word(uint64(g.NumVertices()))
	if g.Directed() {
		word(1)
	} else {
		word(0)
	}
	off := int64(0)
	word(0)
	for u := 0; u < g.NumVertices(); u++ {
		off += int64(g.OutDegree(int32(u)))
		word(uint64(off))
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(int32(u)) {
			binary.LittleEndian.PutUint32(b[:4], uint32(v))
			h.Write(b[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins the generated graphs across commits, where
// TestGeneratorsBitIdentical and TestBuildCSRDeterministicAcrossWorkers
// only compare two builds of the same code: the benchmark's scale input at
// seeds 1 and 2, its scale-11 canary, a directed R-MAT stream, the composite
// family in both orientations and the in-memory RMAT. A change to the
// samplers, the chunk seeding or BuildCSR that moves a single arc fails here.
func TestGeneratorDigests(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
		want  string
	}{
		{"scale-seed1", func() *graph.Graph { return BuildCSR(RMATStream(17, 8, .57, .19, .19, false, 1), 2) },
			"8ef30c529e6b6270b9884a5e133b75b3e3aabbe4b75e7a426e4b41ba6429ceb5"},
		{"scale-seed2", func() *graph.Graph { return BuildCSR(RMATStream(17, 8, .57, .19, .19, false, 2), 2) },
			"e5db84a2add54467f93857ff30e3325835a5e787c4a00dfa54b428d66d2a7416"},
		{"canary", func() *graph.Graph { return BuildCSR(RMATStream(11, 8, .57, .19, .19, false, 1), 2) },
			"87f77129a8401b1caea401cf704b5dc1885e691cd9cb48d694f878a9b025930d"},
		{"rmat-stream-dir", func() *graph.Graph { return BuildCSR(RMATStream(12, 8, .45, .15, .25, true, 7), 3) },
			"9bb4e54b7efea83a0a47be89ea29ac8efe8882853d82f932589b8f958d9680e0"},
		{"composite", func() *graph.Graph { return BuildCSR(CompositeStream(testComposite(false, 5)), 2) },
			"a41a700bfdf37bf66514e5361db72b5a071965e2f7a76b3e649d8ae67a0a9eae"},
		{"composite-dir", func() *graph.Graph { return BuildCSR(CompositeStream(testComposite(true, 5)), 2) },
			"47e22f8ac33104075409408abbe10a1592a6006a7d1d68cbd60cdffc56f9124e"},
		{"rmat", func() *graph.Graph { return RMAT(10, 8, .57, .19, .19, true, 3) },
			"253bb2c336263133550ce832cec4ce377c8c5b551587c0cb7279e8073888596c"},
	}
	for _, c := range cases {
		if got := csrDigest(c.build()); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
