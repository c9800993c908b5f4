package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graph"
)

// streamChunk bounds the working buffers of ReadBinaryCSR: the reader's
// transient memory is O(streamChunk), independent of the graph's edge count
// (the CSR arrays it returns are of course O(n + m) — they ARE the graph).
const streamChunk = 1 << 16

// ReadBinaryCSR reads a WriteBinary stream (v1 or v2) directly into CSR
// form, the package's one binary reader (MmapGraph falls back to it). It
// never materializes an edge list: the offset array is derived from the
// degree table as it streams past, and neighbors land in their final
// adjacency slots chunk by chunk, so the load's memory high-water is the
// returned CSR plus one fixed 256 KiB chunk buffer. This is the reader
// behind Load(".bin"), bcd's WAL snapshots and the mmap fallback.
//
// Hostile headers cost only what they ship: both CSR arrays grow
// geometrically with bytes actually read, so a header that claims 2^40 arcs
// costs memory proportional to the data it really ships, and a degree that
// would wrap an int32 CSR offset or overrun the declared arc count is
// rejected before the adjacency is touched. Rows must arrive sorted,
// duplicate-free, self-loop-free and (for undirected graphs)
// mirror-complete — everything WriteBinary guarantees — because the CSR is
// adopted as-is rather than rebuilt.
func ReadBinaryCSR(r io.Reader) (*graph.Graph, error) {
	return readBinaryCSRSized(r, -1)
}

// readBinaryCSRSized is ReadBinaryCSR with an optional source-size hint
// (fileSize < 0 means unknown). When the hint agrees byte-for-byte with the
// size the header implies, the header is no longer hostile — every byte it
// promises demonstrably exists — so both CSR arrays are preallocated at
// final size and the load's transient memory is exactly the chunk buffer.
// This is the path behind Load and the mmap fallback, where the source
// is a regular file with a known size; a mismatched hint silently falls
// back to geometric growth (the stream may legitimately be a prefix of a
// longer pipe). Validation is identical either way.
func readBinaryCSRSized(r io.Reader, fileSize int64) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, streamChunk)
	flags, n, arcs, hdrLen, err := readBinHeader(br)
	if err != nil {
		return nil, err
	}
	sized := fileSize >= 0 && uint64(fileSize) == uint64(hdrLen)+4*n+4*arcs

	// One reused byte buffer serves both passes (binary.Read would allocate
	// fresh scratch per call, turning transient allocation O(m)); its size is
	// capped at the chunk limit so a hostile header cannot inflate it.
	buf := make([]byte, 4*min(max(n, arcs, 1), streamChunk))

	// Degree pass: fold the degree table into the offset array on the fly.
	offsCap := min(n+1, streamChunk)
	if sized {
		offsCap = n + 1
	}
	offs := make([]int64, 1, offsCap)
	var total uint64
	for read := uint64(0); read < n; {
		k := min(n-read, streamChunk)
		b := buf[:4*k]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graphio: degree table truncated at vertex %d: %v", read, err)
		}
		for i := uint64(0); i < k; i++ {
			d := binary.LittleEndian.Uint32(b[4*i:])
			if d > 1<<31-1 {
				return nil, fmt.Errorf("graphio: vertex %d degree %d wraps the CSR offset (non-monotonic)", read+i, d)
			}
			total += uint64(d)
			if total > arcs {
				return nil, fmt.Errorf("graphio: degree prefix sum %d at vertex %d exceeds arc count %d", total, read+i, arcs)
			}
			offs = append(offs, int64(total))
		}
		read += k
	}
	if total != arcs {
		return nil, fmt.Errorf("graphio: degree sum %d != arc count %d", total, arcs)
	}

	// Adjacency pass: neighbors arrive in file order, which is already CSR
	// order, so they append straight into the slab. Row validation (range,
	// sortedness, self-loops, undirected symmetry) happens once, in
	// graph.NewFromCSR — a hostile stream can at worst make us buffer bytes
	// it actually shipped before the rejection lands.
	// The slab grows by explicit doubling capped at the declared arc count:
	// still geometric in bytes actually read (a truncated hostile stream
	// over-allocates at most 2x what it shipped), but with a 2x growth factor
	// the retired intermediate slabs total ~1x the final size, where append's
	// ~1.25x factor would retire ~4x (see TestReadBinaryCSRMemoryBound).
	// A size-verified source skips growth entirely.
	adjCap := min(arcs, streamChunk)
	if sized {
		adjCap = arcs
	}
	adj := make([]graph.V, 0, adjCap)
	for read := uint64(0); read < arcs; {
		k := min(arcs-read, streamChunk)
		b := buf[:4*k]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graphio: adjacency truncated at arc %d: %v", read, err)
		}
		if need := read + k; need > uint64(cap(adj)) {
			grown := make([]graph.V, read, min(arcs, max(uint64(cap(adj))*2, need)))
			copy(grown, adj)
			adj = grown
		}
		for i := uint64(0); i < k; i++ {
			adj = append(adj, graph.V(binary.LittleEndian.Uint32(b[4*i:])))
		}
		read += k
	}
	// A well-formed file ends exactly at the last arc; trailing bytes mean
	// the header undersold the graph (the mmap reader enforces the same
	// property via an exact file-size check).
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("graphio: trailing data after %d arcs", arcs)
	}
	return graph.NewFromCSR(int(n), offs, adj, flags&1 != 0)
}
