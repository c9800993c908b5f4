package graphio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"unsafe"

	"repro/internal/graph"
)

// ReadBinaryCSR reads a WriteBinary stream (v1 or v2) directly into CSR
// form. It is the heap byte source of the package's one binary decoder; the
// other is MmapGraph's mapping, and both derive the offset array through
// offsets. The payload — degree table, then adjacency — is read into one
// []int32 buffer, whose tail the graph adopts as its adjacency, so no arc is
// copied once read. Load(".bin") — bcd's WAL snapshots included — and the
// mmap fallback run it sized by the file's Stat (readBinaryFile).
//
// Hostile headers cost only what they ship: the buffer grows with bytes
// actually read, so a header that claims 2^40 arcs costs memory proportional
// to the data it really ships, and a degree that would wrap an int32 CSR
// offset or overrun the declared arc count is rejected before any adjacency
// byte is read. Rows must arrive sorted, duplicate-free, self-loop-free and
// (for undirected graphs) mirror-complete — everything WriteBinary
// guarantees — because the CSR is adopted as-is rather than rebuilt.
func ReadBinaryCSR(r io.Reader) (*graph.Graph, error) {
	return readBinaryCSRSized(r, -1)
}

// readBinaryFile is ReadBinaryCSR over an open file, sized by its Stat.
func readBinaryFile(f *os.File) (*graph.Graph, error) {
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	return readBinaryCSRSized(f, size)
}

// readBinaryCSRSized is ReadBinaryCSR with an optional source-size hint
// (fileSize < 0 means unknown). When the hint agrees byte-for-byte with the
// size the header implies, every byte the header promises demonstrably
// exists, so the buffer is allocated at its final n + arcs words at once. A
// mismatched hint falls back to growth (the stream may legitimately be a
// prefix of a longer pipe). Validation is identical either way.
func readBinaryCSRSized(r io.Reader, fileSize int64) (*graph.Graph, error) {
	flags, n, arcs, hdrLen, err := readBinHeader(r)
	if err != nil {
		return nil, err
	}
	words := n + arcs
	size := min(words, 1<<14)
	if fileSize >= 0 && uint64(fileSize) == uint64(hdrLen)+4*words {
		size = words
	}
	buf := make([]graph.V, 0, size)
	// fill reads words until buf holds want of them. The buffer doubles only
	// once full, capped at the header's n + arcs words: geometric in bytes
	// actually read (past the first 64 KiB, a truncated hostile stream
	// over-allocates at most 2× what it shipped), and the retired buffers
	// total about 1× the final one (TestReadBinaryCSRMemoryBound).
	fill := func(want uint64) error {
		for uint64(len(buf)) < want {
			if len(buf) == cap(buf) {
				buf = append(make([]graph.V, 0, min(words, 2*uint64(cap(buf)))), buf...)
			}
			got, err := io.ReadFull(r, wordBytes(buf[len(buf):min(want, uint64(cap(buf)))]))
			buf = buf[:len(buf)+got/4]
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(n); err != nil {
		return nil, fmt.Errorf("graphio: degree table truncated at vertex %d: %v", len(buf), err)
	}
	offs, err := offsets(wordBytes(buf), n, arcs)
	if err != nil {
		return nil, err
	}
	if err := fill(words); err != nil {
		return nil, fmt.Errorf("graphio: adjacency truncated at arc %d: %v", uint64(len(buf))-n, err)
	}
	// The graph adopts the tail; the 4n-byte degree table ahead of it stays
	// in the same allocation. Row validation (range, sortedness, self-loops,
	// undirected symmetry) happens once, in graph.NewFromCSR.
	adj := buf[n:]
	if !nativeLittleEndian() {
		for i, v := range adj {
			adj[i] = graph.V(bits.ReverseBytes32(uint32(v)))
		}
	}
	// A well-formed file ends exactly at the last arc; trailing bytes mean
	// the header undersold the graph (the mmap reader enforces the same
	// property via an exact file-size check).
	if _, err := io.ReadFull(r, make([]byte, 1)); err != io.EOF {
		return nil, fmt.Errorf("graphio: trailing data after %d arcs", arcs)
	}
	return graph.NewFromCSR(int(n), offs, adj, flags&1 != 0)
}

// offsets is the one walk of a degree table, shared by both byte sources:
// it folds the n little-endian u32 degrees in deg into the CSR offset array,
// rejecting a degree that would wrap an int32 offset, a prefix sum past the
// declared arc count and a total short of it.
func offsets(deg []byte, n, arcs uint64) ([]int64, error) {
	offs := make([]int64, n+1)
	var total uint64
	for i := uint64(0); i < n; i++ {
		d := binary.LittleEndian.Uint32(deg[4*i:])
		if d > 1<<31-1 {
			return nil, fmt.Errorf("graphio: vertex %d degree %d wraps the CSR offset (non-monotonic)", i, d)
		}
		total += uint64(d)
		if total > arcs {
			return nil, fmt.Errorf("graphio: degree prefix sum %d at vertex %d exceeds arc count %d", total, i, arcs)
		}
		offs[i+1] = int64(total)
	}
	if total != arcs {
		return nil, fmt.Errorf("graphio: degree sum %d != arc count %d", total, arcs)
	}
	return offs, nil
}

// wordBytes views w's memory as bytes, so a read lands in the words in place.
func wordBytes(w []graph.V) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 4*len(w))
}

// nativeLittleEndian reports whether the host byte order matches the
// little-endian on-disk order, so the file's bytes are the in-memory words.
func nativeLittleEndian() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 }
