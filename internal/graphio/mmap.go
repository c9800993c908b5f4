package graphio

import (
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/graph"
)

// Mapped is a read-only CSR graph whose adjacency array may alias a memory
// mapping of the source file. ZeroCopy reports which way the load went: true
// means Out() slices point into the mapping (the OS pages neighbors in on
// demand and can drop them under pressure), false means the portable
// fallback read the file's payload into one heap buffer via ReadBinaryCSR,
// the decoder's other byte source. Either way the Graph is safe for the full
// engine stack — graph.NewFromCSR never writes to the adopted arrays, and the
// lazily built transpose is a fresh allocation.
//
// Close unmaps the file. After Close, a ZeroCopy graph's adjacency is gone —
// the caller owns the ordering, exactly like the internal/ws epoch contract:
// retire the graph from every workspace before closing. Close on a fallback
// load is a no-op.
type Mapped struct {
	*graph.Graph
	ZeroCopy bool
	data     []byte
}

// Close releases the mapping, if any. Safe to call twice.
func (m *Mapped) Close() error {
	if m.data == nil {
		return nil
	}
	d := m.data
	m.data = nil
	return munmapBytes(d)
}

// MmapGraph opens a binary CSR file (WriteBinary format) as a read-only
// graph, memory-mapping the adjacency when the platform and the file allow
// it. Zero-copy engages only when all of these hold:
//
//   - the build target has an mmap backend (linux/darwin);
//   - the file is format v2, whose 28-byte padded header 4-byte-aligns the
//     degree table and adjacency (v1's 25-byte header cannot be
//     reinterpreted as []int32 at any page-aligned base);
//   - the host is little-endian, matching the on-disk byte order, so the
//     mapping's bytes are the in-memory representation.
//
// Otherwise it falls back to ReadBinaryCSR, which accepts both versions on
// any platform. The offset array is always materialized on the heap by
// offsets, the walk the heap path shares (the file stores u32 degrees, the
// CSR wants an int64 prefix sum): zero-copy saves the 4·arcs-byte adjacency —
// the dominant term — not the degree walk.
//
// The mapped path validates exactly like the heap path (the same degree
// walk, strict row validation in graph.NewFromCSR) plus an exact file-size
// check: a v2 file must be precisely 28 + 4n + 4·arcs bytes, so truncated or
// oversized files are rejected before any CSR is built.
func MmapGraph(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	fallback := func() (*Mapped, error) {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		g, err := readBinaryFile(f)
		if err != nil {
			return nil, err
		}
		return &Mapped{Graph: g}, nil
	}

	flags, n, arcs, hdrLen, err := readBinHeader(f)
	if err != nil {
		return nil, err
	}
	if !mmapSupported || !nativeLittleEndian() || hdrLen != binHdrSize {
		return fallback()
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	want := int64(binHdrSize) + 4*int64(n) + 4*int64(arcs)
	if st.Size() != want {
		return nil, fmt.Errorf("graphio: %s is %d bytes, header implies %d", path, st.Size(), want)
	}

	data, err := mmapFile(f, st.Size())
	if err != nil {
		// Mapping can fail for environmental reasons (e.g. the file lives on
		// a filesystem that refuses MAP_SHARED); the file itself is fine.
		return fallback()
	}
	offs, err := offsets(data[binHdrSize:binHdrSize+4*int64(n)], n, arcs)
	var g *graph.Graph
	if err == nil {
		adj := unsafe.Slice((*graph.V)(unsafe.Pointer(unsafe.SliceData(data[binHdrSize+4*int64(n):]))), arcs)
		g, err = graph.NewFromCSR(int(n), offs, adj, flags&1 != 0)
	}
	if err != nil {
		munmapBytes(data)
		return nil, err
	}
	return &Mapped{Graph: g, ZeroCopy: true, data: data}, nil
}
