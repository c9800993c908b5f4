// Package graphio reads and writes graphs in the formats the paper's inputs
// come in: SNAP-style whitespace edge lists and DIMACS shortest-path
// challenge files (the road networks), each optionally weighted; GraphML and
// d3 node-link JSON for interchange; and a binary CSR format for caching
// generated datasets between harness runs. There is one reader per format,
// and Load is the one place a file's format is chosen.
package graphio

import (
	"bufio"
	"encoding/binary"
	"errors"
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
// in first-appearance order. With weighted, a third column is the edge's
// weight (1 where it is missing); without, columns past the second are
// ignored. Returns the graph and the dense->original id mapping.
func ReadEdgeList(r io.Reader, directed, weighted bool) (*graph.Graph, []int64, error) {
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
	var wedges []graph.WeightedEdge
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
		if !weighted {
			edges = append(edges, graph.Edge{From: id(u), To: id(v)})
			continue
		}
		w := 1.0
		if len(fields) >= 3 {
			if w, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, nil, fmt.Errorf("graphio: line %d: bad weight: %v", lineNo, err)
			}
			if err := checkWeight(w); err != nil {
				return nil, nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
		}
		wedges = append(wedges, graph.WeightedEdge{From: id(u), To: id(v), W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graphio: %v", err)
	}
	if weighted {
		return graph.NewWeightedFromEdges(len(orig), wedges, directed), orig, nil
	}
	return graph.NewFromEdges(len(orig), edges, directed), orig, nil
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

// WriteEdgeList writes g as a SNAP-style edge list with a descriptive
// header; a weighted graph gets a third column, its edge weights.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	kind := "Undirected"
	if g.Directed() {
		kind = "Directed"
	}
	if g.Weighted() {
		kind += " weighted"
	}
	fmt.Fprintf(bw, "# %s graph\n# Nodes: %d Edges: %d\n", kind, g.NumVertices(), g.NumEdges())
	if g.Weighted() {
		for _, e := range g.WeightedEdges() {
			fmt.Fprintf(bw, "%d\t%d\t%g\n", e.From, e.To, e.W)
		}
	} else {
		for _, e := range g.Edges() {
			fmt.Fprintf(bw, "%d\t%d\n", e.From, e.To)
		}
	}
	return bw.Flush()
}

// ReadDIMACS parses a DIMACS shortest-path challenge graph ("p sp n m"
// problem line, "a u v w" arc lines, 1-indexed vertices). With weighted the
// arc weights are kept (the road networks' travel times); without, they are
// not read, since the paper treats road networks as unweighted. DIMACS files
// list each undirected road segment as two arcs; pass directed=false to
// collapse them. The problem line's n must lie in [0, 2^31], the binary
// header's bound: it sizes the graph before any arc backs it.
func ReadDIMACS(r io.Reader, directed, weighted bool) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	var edges []graph.Edge
	var wedges []graph.WeightedEdge
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
			if nn < 0 || nn > 1<<31 {
				return nil, fmt.Errorf("graphio: line %d: vertex count %d outside [0, 2^31]", lineNo, nn)
			}
			n = nn
		case "a", "e":
			if n < 0 {
				return nil, fmt.Errorf("graphio: line %d: arc before problem line", lineNo)
			}
			if len(fields) < 3 || (weighted && len(fields) < 4) {
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
			if !weighted {
				edges = append(edges, graph.Edge{From: int32(u - 1), To: int32(v - 1)})
				continue
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: bad weight: %v", lineNo, err)
			}
			if err := checkWeight(w); err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
			wedges = append(wedges, graph.WeightedEdge{From: int32(u - 1), To: int32(v - 1), W: w})
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
	if weighted {
		return graph.NewWeightedFromEdges(n, wedges, directed), nil
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

// streamChunk is the size of WriteBinary's one reused buffer.
const streamChunk = 1 << 16

// WriteBinary writes g in the repository's binary CSR cache format (v2). It
// encodes through one reused streamChunk-byte buffer, handing w a full buffer
// at a time.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	n := g.NumVertices()
	flags := uint32(0)
	if g.Directed() {
		flags = 1
	}
	buf := append(make([]byte, 0, streamChunk), binMagic2...)
	buf = append(buf, make([]byte, binPad)...)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumArcs()))
	// len(buf) stays a multiple of 4 (the 28-byte header, then 4-byte
	// words), as cap(buf) is, so flushing when full means no append grows buf.
	flush := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	for u := 0; u < n; u++ {
		if len(buf) == cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.OutDegree(graph.V(u))))
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Out(graph.V(u)) {
			if len(buf) == cap(buf) {
				if err := flush(); err != nil {
					return err
				}
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return flush()
}

// readBinHeader consumes a v1 or v2 header and returns the declared shape
// after the shared plausibility checks. Readers must still validate the
// degree table against the declared arc count before trusting either number.
func readBinHeader(r io.Reader) (flags uint32, n, arcs uint64, hdrLen int, err error) {
	hdr := make([]byte, binHdrSize)
	if _, err = io.ReadFull(r, hdr[:len(binMagic)]); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("graphio: reading magic: %v", err)
	}
	switch magic := hdr[:len(binMagic)]; string(magic) {
	case binMagic:
		hdrLen = binHdrSize - binPad
	case binMagic2:
		hdrLen = binHdrSize
	default:
		return 0, 0, 0, 0, fmt.Errorf("graphio: bad magic %q", magic)
	}
	rest := hdr[len(binMagic):hdrLen]
	if _, err = io.ReadFull(r, rest); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("graphio: reading header: %v", err)
	}
	if hdrLen == binHdrSize {
		if pad := rest[:binPad]; pad[0]|pad[1]|pad[2] != 0 {
			return 0, 0, 0, 0, fmt.Errorf("graphio: non-zero header padding %v", pad)
		}
		rest = rest[binPad:]
	}
	flags = binary.LittleEndian.Uint32(rest)
	n = binary.LittleEndian.Uint64(rest[4:])
	arcs = binary.LittleEndian.Uint64(rest[12:])
	if n > 1<<31 || arcs > 1<<40 {
		return 0, 0, 0, 0, fmt.Errorf("graphio: implausible sizes n=%d arcs=%d", n, arcs)
	}
	return flags, n, arcs, hdrLen, nil
}

// Format names accepted by ReadFile and SaveFile.
const (
	formatEdgeList = "edgelist"
	formatDIMACS   = "dimacs"
	formatBinary   = "bin"
	formatGraphML  = "graphml"
	formatJSON     = "json"
)

// ErrNoWeights is the error for weights asked of, or given to, the binary
// CSR format, which has no weight array.
var ErrNoWeights = errors.New("graphio: the binary format has no weights")

// Load opens path and reads it with ReadFile.
func Load(path, format string, directed, weighted bool) (*graph.Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadFile(f, format, directed, weighted)
}

// ReadFile reads an opened graph file. It is the one place a file's format is
// chosen: format names it, or "" infers it from f.Name()'s extension (.gr
// DIMACS, .bin binary CSR read sized by its Stat, .graphml/.xml GraphML, .json
// d3 node-link, anything else an edge list). weighted asks the edge list and
// DIMACS readers for their weight column, and is ErrNoWeights on .bin; GraphML
// and JSON take weights and directedness from the file. The ids are an edge
// list's file ids, and nil for every other format.
func ReadFile(f *os.File, format string, directed, weighted bool) (g *graph.Graph, ids []int64, err error) {
	if format == "" {
		format = inferFormat(f.Name())
	}
	if format == formatBinary && weighted {
		return nil, nil, fmt.Errorf("%w: cannot read weights from %s", ErrNoWeights, f.Name())
	}
	switch format {
	case formatEdgeList:
		return ReadEdgeList(f, directed, weighted)
	case formatDIMACS:
		g, err = ReadDIMACS(f, directed, weighted)
	case formatBinary:
		g, err = readBinaryFile(f)
	case formatGraphML:
		g, _, err = ReadGraphML(f)
	case formatJSON:
		g, err = ReadJSON(f)
	default:
		err = fmt.Errorf("graphio: unknown format %q", format)
	}
	return g, nil, err
}

// LoadFile is Load without weights or ids: the graph alone.
func LoadFile(path, format string, directed bool) (*graph.Graph, error) {
	g, _, err := Load(path, format, directed, false)
	return g, err
}

// SaveFile writes a graph file; format inference mirrors ReadFile (DIMACS output
// is not supported, and a weighted graph cannot be written as .bin).
func SaveFile(path, format string, g *graph.Graph) error {
	if format == "" {
		format = inferFormat(path)
	}
	if format == formatBinary && g.Weighted() {
		return fmt.Errorf("%w: cannot write weighted graph to %s", ErrNoWeights, path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case formatEdgeList:
		return WriteEdgeList(f, g)
	case formatBinary:
		return WriteBinary(f, g)
	case formatGraphML:
		return WriteGraphML(f, g)
	case formatJSON:
		return WriteJSON(f, g)
	default:
		return fmt.Errorf("graphio: cannot write format %q", format)
	}
}

func inferFormat(path string) string {
	switch {
	case strings.HasSuffix(path, ".gr"):
		return formatDIMACS
	case strings.HasSuffix(path, ".bin"):
		return formatBinary
	case strings.HasSuffix(path, ".graphml") || strings.HasSuffix(path, ".xml"):
		return formatGraphML
	case strings.HasSuffix(path, ".json"):
		return formatJSON
	default:
		return formatEdgeList
	}
}
