package graphio

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// binHeader assembles a binary-format header (magic, flags, n, arcs) plus an
// optional degree table — the raw material for hardening tests and fuzz
// seeds targeting ReadBinaryCSR's pre-allocation validation.
func binHeader(flags uint32, n, arcs uint64, degs []uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString(binMagic)
	binary.Write(&buf, binary.LittleEndian, flags)
	binary.Write(&buf, binary.LittleEndian, n)
	binary.Write(&buf, binary.LittleEndian, arcs)
	if degs != nil {
		binary.Write(&buf, binary.LittleEndian, degs)
	}
	return buf.Bytes()
}

// Fuzz targets: the parsers must never panic on arbitrary input — they
// either return a graph or an error. Run with `go test -fuzz FuzzReadEdgeList
// ./internal/graphio` for continuous fuzzing; the seed corpus below runs as
// part of the normal test suite.

func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"# comment\n1 2\n",
		"1 2\n2 3\n3 1\n",
		"999999999999999999999 1\n",
		"1 2 extra fields here\n",
		"-1 5\n",
		"a b\n",
		strings.Repeat("7 8\n", 100),
		"\x00\x01\x02",
		"1\t2\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s), true)
		f.Add([]byte(s), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, directed bool) {
		fuzzEdgeList(t, data, directed, false)
	})
}

func FuzzReadWeightedEdgeList(f *testing.F) {
	seeds := []string{
		"0 1 2.5\n",
		"0 1\n",
		"0 1 -1\n",
		"0 1 NaN\n",
		"0 1 Inf\n",
		"0 1 1e308\n1 2 1e-308\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, directed bool) {
		fuzzEdgeList(t, data, directed, true)
	})
}

// fuzzEdgeList is the body of both edge-list fuzz targets, which differ only
// in the weighted argument they hand the one parser.
func fuzzEdgeList(t *testing.T, data []byte, directed, weighted bool) {
	g, _, err := ReadEdgeList(bytes.NewReader(data), directed, weighted)
	if err != nil || g == nil {
		return
	}
	// Returned graphs must be internally consistent, carry weights exactly
	// when asked to, and every accepted weight must be positive.
	if g.NumArcs() < 0 || g.NumVertices() < 0 {
		t.Fatal("negative sizes")
	}
	if g.Weighted() != weighted {
		t.Fatalf("Weighted() = %v, asked for %v", g.Weighted(), weighted)
	}
	for u := int32(0); weighted && int(u) < g.NumVertices(); u++ {
		for _, w := range g.OutWeights(u) {
			if !(w > 0) {
				t.Fatalf("accepted non-positive weight %v", w)
			}
		}
	}
	var buf bytes.Buffer
	if werr := WriteEdgeList(&buf, g); werr != nil {
		t.Fatalf("write-back failed: %v", werr)
	}
}

func FuzzReadDIMACS(f *testing.F) {
	seeds := []string{
		"p sp 3 2\na 1 2 5\na 2 3 4\n",
		"c only comments\n",
		"p sp 0 0\n",
		"p sp -1 2\n",
		"p sp 2 1\na 1 2 1\nq\n",
		// A vertex count past 2^31 must be refused before it sizes a graph.
		"p sp 3000000000 1\na 2500000000 1 1\n",
		"p sp 2147483649 0\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadDIMACS(bytes.NewReader(data), false, false)
		if err == nil && g != nil && g.NumVertices() < 0 {
			t.Fatal("negative vertex count accepted")
		}
		ReadDIMACS(bytes.NewReader(data), true, true)
	})
}
