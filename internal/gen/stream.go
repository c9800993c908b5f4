package gen

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// The in-memory generators above top out around 10^5 edges: they build a
// []graph.Edge and hand it to NewFromEdges, so a 10^7-edge graph would spend
// its peak RSS on an edge list that exists only to be thrown away. The
// streaming generators below describe a graph as deterministic chunks of
// arcs instead; BuildCSR replays the chunks twice (degree count, then
// placement) directly into CSR arrays, so generation's memory high-water is
// the CSR itself — the same arrays WriteBinary then streams to disk.

// streamGenChunk is the number of arc samples per chunk — the unit of
// parallel work and of deterministic seeding.
const streamGenChunk = 1 << 16

// Stream describes a graph as Chunks independent arc chunks. Emit must be a
// pure function of its chunk index: chunk c always yields the same arcs in
// the same order, regardless of which worker replays it or how many times.
// That contract is what makes BuildCSR's output independent of parallelism —
// degrees accumulate commutatively and row canonicalization erases placement
// order, so the graph is a function of the arc multiset alone.
//
// yield is called once per arc. Undirected streams must yield both
// orientations of every edge; BuildCSR adopts rows as placed (after
// canonicalization) and the undirected engine stack assumes symmetric
// adjacency.
type Stream struct {
	N        int
	Directed bool
	Chunks   int
	Emit     func(chunk int, yield func(u, v int32))
}

// BuildCSR materializes a Stream as a graph using the given number of
// workers (<= 0 means GOMAXPROCS). Two passes over the chunks: workers pull
// chunk indices from a shared counter, first bumping per-vertex degree
// counters, then — after a serial prefix sum — placing each arc at an
// atomically claimed slot in its final row. Rows land in nondeterministic
// order, so the workers then sort them, in blocks of about streamGenChunk
// arcs, and graph.NewFromCSRUnsorted — whose own sort finds every row in
// order — dedups and drops self-loops; the returned graph is byte-identical
// for any worker count. Besides the CSR it returns, BuildCSR allocates one
// 8n-byte cursor array (TestBuildCSRMemoryBound).
func BuildCSR(s *Stream, workers int) *graph.Graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := s.N
	// each runs do(0 … count−1) on the workers, which pull indices from a
	// shared counter.
	each := func(count int, do func(i int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= count {
						return
					}
					do(i)
				}
			}()
		}
		wg.Wait()
	}
	run := func(visit func(u, v int32)) {
		each(s.Chunks, func(c int) { s.Emit(c, visit) })
	}

	// Degree pass. degs is offset by one so the prefix sum below turns it
	// into the CSR offset array in place.
	degs := make([]int64, n+1)
	run(func(u, v int32) {
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			panic(fmt.Sprintf("gen: stream arc (%d,%d) out of range [0,%d)", u, v, n))
		}
		atomic.AddInt64(&degs[u+1], 1)
	})
	for i := 0; i < n; i++ {
		degs[i+1] += degs[i]
	}

	// Placement pass: cursor[u] hands out slots within u's row.
	cursors := make([]int64, n)
	copy(cursors, degs[:n])
	adj := make([]graph.V, degs[n])
	run(func(u, v int32) {
		adj[atomic.AddInt64(&cursors[u], 1)-1] = v
	})

	// Row sort. Block b holds the rows that start in arcs [b·B, (b+1)·B), so
	// a hub's row is one block however long it is.
	const B = streamGenChunk
	each(int(degs[n]/B)+1, func(b int) {
		lo, _ := slices.BinarySearch(degs[:n], int64(b)*B)
		hi, _ := slices.BinarySearch(degs[:n], int64(b+1)*B)
		for u := lo; u < hi; u++ {
			slices.Sort(adj[degs[u]:degs[u+1]])
		}
	})
	return graph.NewFromCSRUnsorted(n, degs, adj, s.Directed)
}

// splitmix64 is the SplitMix64 finalizer — one multiply-xorshift cascade
// that turns a (seed, chunk) pair into an independent-looking stream seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chunkSeed derives the RNG seed for one chunk of one stream. tag separates
// the independent sub-streams of a composite (cores, bridges, chains) so
// chunk 0 of each draws from unrelated sequences.
func chunkSeed(seed int64, tag, chunk uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)^tag*0x9e3779b97f4a7c15) + chunk))
}

// rmatSample draws one R-MAT arc by the standard quadrant walk, one r.Float64
// per level; RMAT, RMATStream and CompositeStream all sample through it. The
// quadrant is counted, not branched on: q = [p≥a] + [p≥a+b] + [p≥a+b+c] is
// 0–3 for the a, b, c, d quadrants (which needs a, b, c ≥ 0 — checkRMAT),
// its high bit sets u's bit and its low bit v's. A branch on a random draw
// is mispredicted about as often as the quadrant changes; the sum has none.
func rmatSample(r *rand.Rand, n int, a, b, c float64) (int, int) {
	ab, abc := a+b, a+b+c
	u, v := 0, 0
	for bit := n >> 1; bit >= 1; bit >>= 1 {
		p := r.Float64()
		q := b2i(p >= a) + b2i(p >= ab) + b2i(p >= abc)
		u += bit & -(q >> 1)
		v += bit & -(q & 1)
	}
	return u, v
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkRMAT panics unless the quadrant probabilities a, b, c and
// d = 1 − a − b − c are all non-negative.
func checkRMAT(a, b, c float64) {
	if d := 1 - a - b - c; !(a >= 0 && b >= 0 && c >= 0 && d >= 0) {
		panic(fmt.Sprintf("gen: RMAT probabilities a=%v b=%v c=%v d=%v must all be non-negative", a, b, c, d))
	}
}

// RMATStream is the streaming counterpart of RMAT: 2^scale vertices,
// edgeFactor·2^scale arc samples, partitioned into fixed-size chunks that
// each reseed independently via chunkSeed — so any worker can replay any
// chunk and the realized graph is the same at every parallelism. (It is a
// different — equally valid — sample of the R-MAT distribution than the
// in-memory RMAT at the same seed, whose single RNG sequence cannot be
// chunked.) Self-loop samples are skipped; duplicate samples collapse in
// CSR canonicalization, matching the in-memory generator's semantics.
func RMATStream(scale, edgeFactor int, a, b, c float64, directed bool, seed int64) *Stream {
	checkRMAT(a, b, c)
	n := 1 << uint(scale)
	m := int64(edgeFactor) * int64(n)
	chunks := int((m + streamGenChunk - 1) / streamGenChunk)
	return &Stream{
		N:        n,
		Directed: directed,
		Chunks:   chunks,
		Emit: func(chunk int, yield func(u, v int32)) {
			r := rand.New(rand.NewSource(chunkSeed(seed, 1, uint64(chunk))))
			lo := int64(chunk) * streamGenChunk
			hi := min(lo+streamGenChunk, m)
			for e := lo; e < hi; e++ {
				u, v := rmatSample(r, n, a, b, c)
				if u == v {
					continue
				}
				yield(int32(u), int32(v))
				if !directed {
					yield(int32(v), int32(u))
				}
			}
		},
	}
}

// CompositeParams shapes CompositeStream: Cores power-law cores of
// 2^CoreScale vertices each (R-MAT inside, EdgeFactor samples per vertex),
// stitched into a tree by single bridge edges, with a chain periphery
// hanging off pseudo-random core vertices. PeriphFrac is the fraction of all
// vertices that live in the periphery (clamped to [0, 0.9]); chains have
// exactly ChainLen vertices.
type CompositeParams struct {
	Cores      int
	CoreScale  int
	EdgeFactor int
	A, B, C    float64
	PeriphFrac float64
	ChainLen   int
	Directed   bool
	Seed       int64
}

// CompositeStream builds the scale-realistic AP-structure family: the cores
// supply the giant power-law biconnected mass the paper's social/web inputs
// have, while every bridge endpoint and every non-leaf chain vertex is an
// articulation point and every bridge/chain edge is its own biconnected
// component — so with nc chains of length L the census has at least
// nc·(L−1) articulation points, nc·L single-edge BCCs, and nc degree-1
// leaves (total-redundancy candidates), tunable directly via PeriphFrac and
// ChainLen. Directed chains are oriented core-ward (one out-arc per chain
// vertex, no in-arcs), the paper's directed total-redundancy pattern;
// bridges always carry both arcs so cores stay mutually reachable.
//
// Vertex layout is deterministic: core c occupies [c·2^CoreScale,
// (c+1)·2^CoreScale), chain i occupies ChainLen consecutive vertices
// starting at cores·2^CoreScale + i·ChainLen.
func CompositeStream(p CompositeParams) *Stream {
	if p.Cores < 1 {
		p.Cores = 1
	}
	if p.ChainLen < 1 {
		p.ChainLen = 1
	}
	if p.PeriphFrac < 0 {
		p.PeriphFrac = 0
	}
	if p.PeriphFrac > 0.9 {
		p.PeriphFrac = 0.9
	}
	checkRMAT(p.A, p.B, p.C)
	coreN := 1 << uint(p.CoreScale)
	coresTotal := p.Cores * coreN
	periph := int(float64(coresTotal) * p.PeriphFrac / (1 - p.PeriphFrac))
	numChains := periph / p.ChainLen
	n := coresTotal + numChains*p.ChainLen

	coreM := int64(p.EdgeFactor) * int64(coreN)
	coreChunks := int((coreM + streamGenChunk - 1) / streamGenChunk)
	chainsPerChunk := max(1, streamGenChunk/(p.ChainLen+1))
	periphChunks := (numChains + chainsPerChunk - 1) / chainsPerChunk
	bridgeChunk := p.Cores * coreChunks // single chunk holding all core bridges

	both := func(yield func(u, v int32), u, v int32) {
		yield(u, v)
		yield(v, u)
	}
	return &Stream{
		N:        n,
		Directed: p.Directed,
		Chunks:   bridgeChunk + 1 + periphChunks,
		Emit: func(chunk int, yield func(u, v int32)) {
			switch {
			case chunk < bridgeChunk:
				// One core's R-MAT sample range, offset into its id block.
				core, sub := chunk/coreChunks, chunk%coreChunks
				base := int32(core * coreN)
				r := rand.New(rand.NewSource(chunkSeed(p.Seed, 2, uint64(chunk))))
				lo := int64(sub) * streamGenChunk
				hi := min(lo+streamGenChunk, coreM)
				for e := lo; e < hi; e++ {
					u, v := rmatSample(r, coreN, p.A, p.B, p.C)
					if u == v {
						continue
					}
					if p.Directed {
						yield(base+int32(u), base+int32(v))
					} else {
						both(yield, base+int32(u), base+int32(v))
					}
				}
			case chunk == bridgeChunk:
				// Tree of cores: core c bridges to a pseudo-random vertex of a
				// pseudo-random earlier core, preferring core 0 (the paper's
				// one-huge-top-sub-graph profile). Both arcs even when
				// directed, like SocialLike's community bridges.
				r := rand.New(rand.NewSource(chunkSeed(p.Seed, 3, 0)))
				for c := 1; c < p.Cores; c++ {
					parent := r.Intn(c)
					if r.Float64() < 0.6 {
						parent = 0
					}
					u := int32(parent*coreN + r.Intn(coreN))
					both(yield, u, int32(c*coreN))
				}
			default:
				// A run of chains. Anchors are a function of the chain index
				// (not the chunk), so the chunk partition never shapes the
				// graph.
				pi := chunk - bridgeChunk - 1
				lo := pi * chainsPerChunk
				hi := min(lo+chainsPerChunk, numChains)
				for i := lo; i < hi; i++ {
					anchor := int32(uint64(chunkSeed(p.Seed, 4, uint64(i))) % uint64(coresTotal))
					prev := anchor
					v := int32(coresTotal + i*p.ChainLen)
					for k := 0; k < p.ChainLen; k++ {
						if p.Directed {
							yield(v, prev) // core-ward out-arc only
						} else {
							both(yield, v, prev)
						}
						prev = v
						v++
					}
				}
			}
		},
	}
}
