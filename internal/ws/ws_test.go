package ws

import (
	"sync"
	"testing"
	"unsafe"
)

func TestGrowPreservesInvariants(t *testing.T) {
	var s Sweep
	s.Grow(10)
	if s.Cap() != 10 {
		t.Fatalf("Cap() = %d, want 10", s.Cap())
	}
	if err := s.CheckClean(); err != nil {
		t.Fatalf("fresh sweep dirty: %v", err)
	}
	// The packed record is the four float64 arrays it replaced, byte for
	// byte, and two of them fill a cache line.
	if sz := unsafe.Sizeof(Record{}); sz != 32 {
		t.Fatalf("Record is %d bytes, want 32", sz)
	}
	// Dirty a few slots, sparse-reset them, then grow: invariants must hold
	// across the whole new capacity. Records carry none, so a dirty one is
	// still clean.
	s.Dist[3] = 7
	s.Rec[3] = Record{Sigma: 2, Di2i: 0.5}
	s.Visited.Set(3)
	s.Dist[3] = -1
	s.Visited.Clear(3)
	if err := s.CheckClean(); err != nil {
		t.Fatalf("sparse-reset sweep dirty: %v", err)
	}
	s.Grow(1000)
	if err := s.CheckClean(); err != nil {
		t.Fatalf("grown sweep dirty: %v", err)
	}
	if s.Cap() != 1000 {
		t.Fatalf("Cap() = %d, want 1000", s.Cap())
	}
	// Growing smaller is a no-op.
	dist := &s.Dist[0]
	s.Grow(5)
	if &s.Dist[0] != dist || s.Cap() != 1000 {
		t.Fatal("Grow to a smaller size must not reallocate")
	}
}

func TestGrowWeighted(t *testing.T) {
	var s Sweep
	s.GrowWeighted(8)
	if len(s.FDist) != 8 || len(s.Done) != 8 {
		t.Fatalf("weighted arrays not sized: %d/%d", len(s.FDist), len(s.Done))
	}
	if err := s.CheckClean(); err != nil {
		t.Fatalf("weighted sweep dirty: %v", err)
	}
	// Plain Grow must keep the weighted arrays in step once enabled.
	s.Grow(64)
	if len(s.FDist) != 64 || len(s.Done) != 64 {
		t.Fatalf("Grow dropped weighted arrays: %d/%d", len(s.FDist), len(s.Done))
	}
	if err := s.CheckClean(); err != nil {
		t.Fatalf("regrown weighted sweep dirty: %v", err)
	}
	// GrowWeighted on an unweighted-but-large sweep sizes FDist to the
	// existing capacity, not the (smaller) request.
	var u Sweep
	u.Grow(100)
	u.GrowWeighted(10)
	if len(u.FDist) != 100 {
		t.Fatalf("FDist sized %d, want existing capacity 100", len(u.FDist))
	}
}

func TestGrowLanes(t *testing.T) {
	var s Sweep
	s.GrowLanes(8)
	if len(s.LaneSigma) != 8*LaneWidth || len(s.LaneSeen) != 8 || len(s.LaneFront) != 8 {
		t.Fatalf("lane arrays not sized: %d/%d/%d", len(s.LaneSigma), len(s.LaneSeen), len(s.LaneFront))
	}
	if len(s.LaneDi2i) != 8*LaneWidth || len(s.LaneDi2o) != 8*LaneWidth ||
		len(s.LaneDo2o) != 8*LaneWidth || len(s.LaneBC) != 8*LaneWidth {
		t.Fatal("per-lane δ/BC arrays not sized")
	}
	if err := s.CheckClean(); err != nil {
		t.Fatalf("laned sweep dirty: %v", err)
	}
	// Plain Grow must keep the lane arrays in step once enabled.
	s.Grow(64)
	if len(s.LaneSigma) != 64*LaneWidth || len(s.LaneSeen) != 64 {
		t.Fatalf("Grow dropped lane arrays: %d/%d", len(s.LaneSigma), len(s.LaneSeen))
	}
	if err := s.CheckClean(); err != nil {
		t.Fatalf("regrown laned sweep dirty: %v", err)
	}
	// GrowLanes on a larger existing sweep sizes lanes to the existing
	// capacity, not the (smaller) request — mirroring GrowWeighted.
	var u Sweep
	u.Grow(100)
	u.GrowLanes(10)
	if len(u.LaneSigma) != 100*LaneWidth {
		t.Fatalf("LaneSigma sized %d, want existing capacity %d", len(u.LaneSigma), 100*LaneWidth)
	}
	// Dirty lane state must be caught.
	u.LaneSigma[5] = 1
	u.LaneSeen[3] = 0xff
	u.LaneFront[2] = 1
	if err := u.CheckClean(); err == nil {
		t.Fatal("expected dirty laned sweep")
	}
}

// TestCheckCleanCatchesDirt pins the oracle the msbfs tests lean on.
func TestCheckCleanCatchesDirt(t *testing.T) {
	var s Sweep
	s.GrowWeighted(16)
	if err := s.CheckClean(); err != nil {
		t.Fatalf("fresh sweep dirty: %v", err)
	}
	s.Dist[5] = 3
	s.BC[5] = 2
	s.FDist[5] = 0.5
	s.Done[5] = true
	s.Visited.Set(5)
	if err := s.CheckClean(); err == nil {
		t.Fatal("expected dirty sweep")
	}
}

func TestPoolReuse(t *testing.T) {
	var p Pool
	a := p.Get(100)
	p.Put(a)
	b := p.Get(10)
	if b != a {
		t.Fatal("pool did not reuse the free sweep")
	}
	if b.Cap() != 100 {
		t.Fatalf("reused sweep shrank: Cap() = %d", b.Cap())
	}
	// The pool prefers the largest free sweep.
	big := p.Get(5000)
	p.Put(b)
	p.Put(big)
	c := p.Get(1)
	if c != big {
		t.Fatal("pool did not hand out the largest free sweep")
	}
	if size, inUse := p.Stats(); size != 2 || inUse != 1 {
		t.Fatalf("Stats() = (%d, %d), want (2, 1)", size, inUse)
	}
	p.Put(c)
	p.Put(p.Get(1)) // drains the other free entry and returns it
	if size, inUse := p.Stats(); size != 2 || inUse != 0 {
		t.Fatalf("Stats() = (%d, %d), want (2, 0)", size, inUse)
	}
	p.Put(nil) // no-op
}

// TestPoolRace hammers checkout/return from 8 goroutines; run under -race
// (ci.sh does) this pins the pool's synchronization and that no two
// goroutines ever share a checked-out sweep.
func TestPoolRace(t *testing.T) {
	var p Pool
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 64 + (g*37+i)%256
				s := p.Get(n)
				// Exclusive use: write, verify, sparse-reset.
				for v := 0; v < n; v++ {
					s.Dist[v] = int32(g)
					s.Rec[v].Sigma = float64(i)
				}
				for v := 0; v < n; v++ {
					if s.Dist[v] != int32(g) || s.Rec[v].Sigma != float64(i) {
						t.Errorf("sweep shared between goroutines: got (%d,%g)", s.Dist[v], s.Rec[v].Sigma)
						break
					}
					s.Dist[v] = -1
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
	if _, inUse := p.Stats(); inUse != 0 {
		t.Fatalf("inUse = %d after all returns", inUse)
	}
	if size, _ := p.Stats(); size < 1 || size > goroutines {
		t.Fatalf("size = %d, want between 1 and %d", size, goroutines)
	}
	s := p.Get(1)
	if err := s.CheckClean(); err != nil {
		t.Fatalf("pooled sweep dirty after race test: %v", err)
	}
	p.Put(s)
}

// BenchmarkPoolCheckout measures the warm Get/Put cycle plus a touched-slot
// sparse reset — the per-engine overhead the arena adds to a sweep.
func BenchmarkPoolCheckout(b *testing.B) {
	var p Pool
	p.Put(p.Get(4096)) // warm: one sweep sized up front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := p.Get(4096)
		v := int32(i % 4096)
		s.Dist[v] = 0
		s.Rec[v].Sigma = 1
		s.Dist[v] = -1
		p.Put(s)
	}
}
