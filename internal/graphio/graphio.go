// Package graphio reads and writes graphs in the formats the paper's inputs
// come in: SNAP-style whitespace edge lists, DIMACS shortest-path challenge
// files (the road networks), plus a fast binary CSR format for caching
// generated datasets between harness runs.
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// ReadEdgeList parses a SNAP-style edge list: one "src dst" pair per line,
// '#' or '%' lines are comments, blank lines ignored. Vertex ids may be
// arbitrary non-negative integers; they are remapped to a dense [0, n) space
// in first-appearance order. Returns the graph and the dense->original id
// mapping.
func ReadEdgeList(r io.Reader, directed bool) (*graph.Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	remap := make(map[int64]int32)
	var orig []int64
	id := func(raw int64) int32 {
		if v, ok := remap[raw]; ok {
			return v
		}
		v := int32(len(orig))
		remap[raw] = v
		orig = append(orig, raw)
		return v
	}
	var edges []graph.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graphio: line %d: want 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, nil, fmt.Errorf("graphio: line %d: negative vertex id", lineNo)
		}
		edges = append(edges, graph.Edge{From: id(u), To: id(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graphio: %v", err)
	}
	return graph.NewFromEdges(len(orig), edges, directed), orig, nil
}

// ReadWeightedEdgeList parses a three-column "src dst weight" list with the
// same comment/remap rules as ReadEdgeList. Missing weights default to 1.
func ReadWeightedEdgeList(r io.Reader, directed bool) (*graph.Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	remap := make(map[int64]int32)
	var orig []int64
	id := func(raw int64) int32 {
		if v, ok := remap[raw]; ok {
			return v
		}
		v := int32(len(orig))
		remap[raw] = v
		orig = append(orig, raw)
		return v
	}
	var edges []graph.WeightedEdge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graphio: line %d: want >= 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, nil, fmt.Errorf("graphio: line %d: negative vertex id", lineNo)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graphio: line %d: bad weight: %v", lineNo, err)
			}
			if err := checkWeight(w); err != nil {
				return nil, nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
		}
		edges = append(edges, graph.WeightedEdge{From: id(u), To: id(v), W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graphio: %v", err)
	}
	return graph.NewWeightedFromEdges(len(orig), edges, directed), orig, nil
}

// checkWeight is the one weight rule every reader applies: positive and
// finite. NaN, zero and negatives fail w > 0; +Inf passes it and would reach
// Dijkstra as a distance no sum can exceed.
func checkWeight(w float64) error {
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("weight %v is not positive and finite", w)
	}
	return nil
}

// WriteWeightedEdgeList writes g as a three-column weighted edge list.
func WriteWeightedEdgeList(w io.Writer, g *graph.Graph) error {
	if !g.Weighted() {
		return fmt.Errorf("graphio: graph is unweighted; use WriteEdgeList")
	}
	bw := bufio.NewWriter(w)
	kind := "Undirected"
	if g.Directed() {
		kind = "Directed"
	}
	fmt.Fprintf(bw, "# %s weighted graph\n# Nodes: %d Edges: %d\n", kind, g.NumVertices(), g.NumEdges())
	for _, e := range g.WeightedEdges() {
		fmt.Fprintf(bw, "%d\t%d\t%g\n", e.From, e.To, e.W)
	}
	return bw.Flush()
}

// ReadDIMACSWeighted parses a DIMACS .gr file keeping arc weights (the road
// networks' travel times), unlike ReadDIMACS which drops them.
func ReadDIMACSWeighted(r io.Reader, directed bool) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	var edges []graph.WeightedEdge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if len(fields) < 4 {
				return nil, fmt.Errorf("graphio: line %d: bad problem line", lineNo)
			}
			nn, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
			n = nn
		case "a", "e":
			if n < 0 {
				return nil, fmt.Errorf("graphio: line %d: arc before problem line", lineNo)
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("graphio: line %d: weighted arc needs 3 fields", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graphio: line %d: bad arc", lineNo)
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, fmt.Errorf("graphio: line %d: vertex out of range", lineNo)
			}
			if err := checkWeight(w); err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
			edges = append(edges, graph.WeightedEdge{From: int32(u - 1), To: int32(v - 1), W: w})
		default:
			return nil, fmt.Errorf("graphio: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graphio: missing problem line")
	}
	return graph.NewWeightedFromEdges(n, edges, directed), nil
}

// WriteEdgeList writes g as a SNAP-style edge list with a descriptive header.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	kind := "Undirected"
	if g.Directed() {
		kind = "Directed"
	}
	fmt.Fprintf(bw, "# %s graph\n# Nodes: %d Edges: %d\n", kind, g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d\t%d\n", e.From, e.To)
	}
	return bw.Flush()
}

// ReadDIMACS parses a DIMACS shortest-path challenge graph ("p sp n m"
// problem line, "a u v w" arc lines, 1-indexed vertices; weights are ignored
// since the paper treats road networks as unweighted). DIMACS files list each
// undirected road segment as two arcs; pass directed=false to collapse them.
func ReadDIMACS(r io.Reader, directed bool) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	var edges []graph.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if len(fields) < 4 {
				return nil, fmt.Errorf("graphio: line %d: bad problem line", lineNo)
			}
			nn, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
			n = nn
		case "a", "e":
			if n < 0 {
				return nil, fmt.Errorf("graphio: line %d: arc before problem line", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graphio: line %d: bad arc line", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graphio: line %d: bad arc endpoints", lineNo)
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, fmt.Errorf("graphio: line %d: vertex out of range", lineNo)
			}
			edges = append(edges, graph.Edge{From: int32(u - 1), To: int32(v - 1)})
		default:
			return nil, fmt.Errorf("graphio: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graphio: missing problem line")
	}
	return graph.NewFromEdges(n, edges, directed), nil
}

// The binary CSR cache format comes in two versions. v1 ("APGR\x01") packs
// the header into 25 bytes, which leaves the adjacency array misaligned in
// the file. v2 ("APGR\x02") pads the magic to 8 bytes so the header is 28
// bytes and both the degree table (offset 28) and the adjacency array
// (offset 28+4n) are 4-byte aligned — the property the memory-mapped reader
// needs to reinterpret the mapping as []int32 without copying. WriteBinary
// emits v2; every reader accepts both.
const (
	binMagic  = "APGR\x01"
	binMagic2 = "APGR\x02"
	// binPad follows the v2 magic, and binHdrSize is the full v2 header:
	// magic(5) + pad(3) + flags(4) + n(8) + arcs(8).
	binPad     = 3
	binHdrSize = 28
)

// WriteBinary writes g in the repository's binary CSR cache format (v2).
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic2); err != nil {
		return err
	}
	if _, err := bw.Write(make([]byte, binPad)); err != nil {
		return err
	}
	flags := uint32(0)
	if g.Directed() {
		flags = 1
	}
	hdr := []any{flags, uint64(g.NumVertices()), uint64(g.NumArcs())}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for u := 0; u < g.NumVertices(); u++ {
		if err := binary.Write(bw, binary.LittleEndian, uint32(g.OutDegree(int32(u)))); err != nil {
			return err
		}
	}
	for u := 0; u < g.NumVertices(); u++ {
		if err := binary.Write(bw, binary.LittleEndian, g.Out(int32(u))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readBinHeader consumes a v1 or v2 header and returns the declared shape
// after the shared plausibility checks. Readers must still validate the
// degree table against the declared arc count before trusting either number.
func readBinHeader(br io.Reader) (flags uint32, n, arcs uint64, hdrLen int, err error) {
	magic := make([]byte, len(binMagic))
	if _, err = io.ReadFull(br, magic); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("graphio: reading magic: %v", err)
	}
	hdrLen = len(binMagic) + 4 + 8 + 8
	switch string(magic) {
	case binMagic:
	case binMagic2:
		hdrLen = binHdrSize
		pad := make([]byte, binPad)
		if _, err = io.ReadFull(br, pad); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("graphio: reading header pad: %v", err)
		}
		if pad[0] != 0 || pad[1] != 0 || pad[2] != 0 {
			return 0, 0, 0, 0, fmt.Errorf("graphio: non-zero header padding %v", pad)
		}
	default:
		return 0, 0, 0, 0, fmt.Errorf("graphio: bad magic %q", magic)
	}
	if err = binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return 0, 0, 0, 0, err
	}
	if err = binary.Read(br, binary.LittleEndian, &n); err != nil {
		return 0, 0, 0, 0, err
	}
	if err = binary.Read(br, binary.LittleEndian, &arcs); err != nil {
		return 0, 0, 0, 0, err
	}
	if n > 1<<31 || arcs > 1<<40 {
		return 0, 0, 0, 0, fmt.Errorf("graphio: implausible sizes n=%d arcs=%d", n, arcs)
	}
	return flags, n, arcs, hdrLen, nil
}

// ReadBinary reads a graph written by WriteBinary (either format version).
// It is the lenient reader: rows are rebuilt through graph.NewFromEdges, so
// unsorted or duplicate neighbors in a hand-crafted file are tolerated.
// Loading pipelines use ReadBinaryCSR, which adopts the CSR directly with
// bounded working memory and strict row validation.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
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

// Format names accepted by LoadFile/SaveFile.
const (
	FormatEdgeList = "edgelist"
	FormatDIMACS   = "dimacs"
	FormatBinary   = "bin"
	FormatGraphML  = "graphml"
	FormatJSON     = "json"
)

// LoadFile reads a graph file, inferring format from the extension
// (.txt/.el -> edge list, .gr -> DIMACS, .bin -> binary) unless format is
// non-empty.
func LoadFile(path, format string, directed bool) (*graph.Graph, error) {
	if format == "" {
		format = inferFormat(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case FormatEdgeList:
		g, _, err := ReadEdgeList(f, directed)
		return g, err
	case FormatDIMACS:
		return ReadDIMACS(f, directed)
	case FormatBinary:
		size := int64(-1)
		if fi, err := f.Stat(); err == nil {
			size = fi.Size()
		}
		return readBinaryCSRSized(f, size)
	case FormatGraphML:
		g, _, err := ReadGraphML(f)
		return g, err
	case FormatJSON:
		return ReadJSON(f)
	default:
		return nil, fmt.Errorf("graphio: unknown format %q", format)
	}
}

// SaveFile writes a graph file; format inference mirrors LoadFile
// (DIMACS output is not supported).
func SaveFile(path, format string, g *graph.Graph) error {
	if format == "" {
		format = inferFormat(path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case FormatEdgeList:
		return WriteEdgeList(f, g)
	case FormatBinary:
		return WriteBinary(f, g)
	case FormatGraphML:
		return WriteGraphML(f, g)
	case FormatJSON:
		return WriteJSON(f, g)
	default:
		return fmt.Errorf("graphio: cannot write format %q", format)
	}
}

func inferFormat(path string) string {
	switch {
	case strings.HasSuffix(path, ".gr"):
		return FormatDIMACS
	case strings.HasSuffix(path, ".bin"):
		return FormatBinary
	case strings.HasSuffix(path, ".graphml") || strings.HasSuffix(path, ".xml"):
		return FormatGraphML
	case strings.HasSuffix(path, ".json"):
		return FormatJSON
	default:
		return FormatEdgeList
	}
}
