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

// TestGrowLanes pins the lane layer's sizing — two mask words, one record and
// one BC slot per (swept vertex, lane), none of them following Cap() — its σ
// invariant, and its weight: LaneBytesPerVert (40 B per lane) per swept
// vertex, the number the kernel rule's budget is read in, with the mask words
// and the kernel's level lists on top.
func TestGrowLanes(t *testing.T) {
	if LaneBytesPerVert != LaneWidth*40 {
		t.Fatalf("LaneBytesPerVert = %d, want %d: a lane slot is a 32-byte Record and a BC slot", LaneBytesPerVert, LaneWidth*40)
	}
	var s Sweep
	s.GrowLanes(5, 0)
	if len(s.LaneSeen) != 5 || len(s.LaneFront) != 5 {
		t.Fatalf("mask words sized %d/%d, want one per swept vertex (5)", len(s.LaneSeen), len(s.LaneFront))
	}
	if len(s.LaneRec) != 5*LaneWidth || len(s.LaneBC) != 5*LaneWidth {
		t.Fatalf("slots sized %d/%d, want LaneWidth per swept vertex (%d)", len(s.LaneRec), len(s.LaneBC), 5*LaneWidth)
	}
	if b := s.Bytes(); b.Lanes != 5*LaneWidth*(32+8)+8*(5+5) {
		t.Fatalf("laned sweep weighs %+v", b)
	}
	s.LaneVerts, s.LaneMasks = make([]int32, 0, 10), make([]uint64, 0, 10)
	if b := s.Bytes(); b.Lanes != 5*LaneWidth*(32+8)+8*(5+5)+10*(4+8) {
		t.Fatalf("laned sweep with level lists for 10 weighs %+v", b)
	}
	if err := s.CheckClean(); err != nil {
		t.Fatalf("laned sweep dirty: %v", err)
	}
	// Plain Grow leaves the lane arrays alone: they belong to the sub-graph a
	// lane sweep walked, not to the workspace's high-water mark.
	s.Grow(64)
	if len(s.LaneRec) != 5*LaneWidth || len(s.LaneSeen) != 5 {
		t.Fatalf("Grow resized the lane arrays: %d/%d", len(s.LaneRec), len(s.LaneSeen))
	}
	// A smaller request keeps what is there; a larger one grows the lane
	// arrays, and the capacity only past it.
	rec := &s.LaneRec[0]
	s.GrowLanes(3, 0)
	if &s.LaneRec[0] != rec || s.Cap() != 64 {
		t.Fatal("a request within the current size reallocated")
	}
	s.GrowLanes(9, 0)
	if len(s.LaneSeen) != 9 || len(s.LaneRec) != 9*LaneWidth || len(s.LaneBC) != 9*LaneWidth || s.Cap() != 64 {
		t.Fatalf("swept growth: masks %d, slots %d/%d, cap %d", len(s.LaneSeen), len(s.LaneRec), len(s.LaneBC), s.Cap())
	}
	s.GrowLanes(100, 0)
	if len(s.LaneSeen) != 100 || len(s.LaneRec) != 100*LaneWidth || s.Cap() != 100 {
		t.Fatalf("growth past the capacity: masks %d, slots %d, cap %d", len(s.LaneSeen), len(s.LaneRec), s.Cap())
	}
	// A big scalar workspace does not drag lane arrays behind it.
	var u Sweep
	u.Grow(100000)
	u.GrowLanes(4, 0)
	if len(u.LaneRec) != 4*LaneWidth || len(u.LaneSeen) != 4 {
		t.Fatalf("lanes sized by Cap(): slots %d, masks %d", len(u.LaneRec), len(u.LaneSeen))
	}
	if err := u.CheckClean(); err != nil {
		t.Fatalf("regrown laned sweep dirty: %v", err)
	}
	// The δ fields and the staged BC carry no invariant: a sweep that leaves
	// them behind is clean.
	u.LaneRec[3*LaneWidth+5] = Record{Di2i: 1, Di2o: 2, Do2o: 3}
	u.LaneBC[3*LaneWidth+5] = 4
	if err := u.CheckClean(); err != nil {
		t.Fatalf("δ or BC lane slots counted as dirty: %v", err)
	}
	// Dirty lane state must be caught, each kind on its own.
	for _, dirty := range []func(){
		func() { u.LaneRec[3*LaneWidth+5].Sigma = 1 },
		func() { u.LaneSeen[3] = 0xff },
		func() { u.LaneFront[2] = 1 },
	} {
		dirty()
		if err := u.CheckClean(); err == nil {
			t.Fatal("expected dirty laned sweep")
		}
		u.LaneRec[3*LaneWidth+5].Sigma, u.LaneSeen[3], u.LaneFront[2] = 0, 0, 0
	}
}

// TestGrowLanesHeadroom: a first lane layer is sized exactly; one that must
// grow takes an eighth more swept vertices than it held, as far as the budget
// reaches, and never fewer than it was asked for — so a request past the
// budget (a forced lane run) is sized exactly.
func TestGrowLanesHeadroom(t *testing.T) {
	budget := 100 * LaneBytesPerVert
	var s Sweep
	for _, c := range []struct{ swept, want int }{
		{64, 64},   // first: exact
		{60, 64},   // fits
		{65, 72},   // 64 + 64/8
		{73, 81},   // 72 + 72/8
		{95, 95},   // the request beats the headroom
		{96, 100},  // 95 + 95/8, cut to the budget's 100
		{100, 100}, // fits
		{130, 130}, // past the budget: exact
		{131, 131}, // and so on past it
	} {
		s.GrowLanes(c.swept, budget)
		if got := len(s.LaneRec) / LaneWidth; got != c.want || len(s.LaneBC) != len(s.LaneRec) {
			t.Fatalf("GrowLanes(%d swept): %d/%d slots, want %d swept vertices", c.swept, len(s.LaneRec), len(s.LaneBC), c.want)
		}
	}
	if err := s.CheckClean(); err != nil {
		t.Fatalf("regrown lanes dirty: %v", err)
	}
}

// TestGrowTape pins the tape's sizing — one slot per swept arc, one position
// per swept vertex and one past it, neither following Cap() — and that Bytes
// counts it, and every other layer, as its own.
func TestGrowTape(t *testing.T) {
	var s Sweep
	s.Grow(100000)
	if b := s.Bytes(); b.Tape != 0 || b.Lanes != 0 || b.Base < 100000*(4+32+8) {
		t.Fatalf("a plain sweep of 100000 weighs %+v", b)
	}
	base := s.Bytes().Base
	s.GrowTape(50, 20)
	if len(s.Tape) != 50 || len(s.TapePos) != 21 {
		t.Fatalf("tape sized %d/%d under capacity %d, want 50/21", len(s.Tape), len(s.TapePos), s.Cap())
	}
	if b := s.Bytes(); b.Tape != 4*50+8*21 || b.Base != base || b.Lanes != 0 {
		t.Fatalf("taped sweep weighs %+v", b)
	}
	// A smaller request keeps what is there; each part grows on its own.
	tape := &s.Tape[0]
	s.GrowTape(40, 30)
	if &s.Tape[0] != tape || len(s.TapePos) != 31 {
		t.Fatalf("regrown tape: same slots %v, %d positions", &s.Tape[0] == tape, len(s.TapePos))
	}
	s.GrowLanes(5, 0)
	if b := s.Bytes(); b.Lanes != 5*2*8+5*int64(LaneBytesPerVert) || b.Tape != 4*50+8*31 || b.Base != base {
		t.Fatalf("laned sweep weighs %+v", b)
	}
	if err := s.CheckClean(); err != nil {
		t.Fatalf("taped sweep dirty: %v", err)
	}
}

// TestPoolBytes: the pool's total is its sweeps' Bytes as of each one's last
// Put — growth shows when the sweep comes back, whoever holds the others.
func TestPoolBytes(t *testing.T) {
	var p Pool
	if b := p.Bytes(); b != (Bytes{}) {
		t.Fatalf("empty pool weighs %+v", b)
	}
	a, b := p.Get(100), p.Get(10)
	a.GrowTape(50, 20)
	if got := p.Bytes(); got != (Bytes{}) {
		t.Fatalf("pool counted checked-out sweeps: %+v", got)
	}
	p.Put(a)
	if got := p.Bytes(); got != a.Bytes() {
		t.Fatalf("pool weighs %+v, its one returned sweep %+v", got, a.Bytes())
	}
	b.GrowLanes(4, 0)
	p.Put(b)
	a = p.Get(1000) // regrown while out: counted at its old size until it is back
	want := Bytes{Base: a.held.Base + b.Bytes().Base, Lanes: b.Bytes().Lanes, Tape: a.Bytes().Tape}
	if got := p.Bytes(); got != want {
		t.Fatalf("pool weighs %+v, want %+v", got, want)
	}
	p.Put(a)
	want.Base = a.Bytes().Base + b.Bytes().Base
	if got := p.Bytes(); got != want {
		t.Fatalf("pool weighs %+v after the regrown sweep returned, want %+v", got, want)
	}
}

// TestPoolTrim: Trim keeps the largest free sweeps and takes the others out of
// the size and byte gauges; a sweep that is checked out is not touched, and
// counts from its Put on as any other.
func TestPoolTrim(t *testing.T) {
	var p Pool
	a, b, c := p.Get(10), p.Get(300), p.Get(20)
	c.GrowLanes(8, 0)
	p.Put(a)
	p.Put(b)
	p.Trim(1)
	if size, inUse := p.Stats(); size != 2 || inUse != 1 {
		t.Fatalf("after Trim(1) with one sweep out: size %d, in use %d, want 2/1", size, inUse)
	}
	if got := p.Bytes(); got != b.Bytes() {
		t.Fatalf("pool weighs %+v, the sweep it kept %+v", got, b.Bytes())
	}
	if got := p.Get(0); got != b {
		t.Fatal("Trim(1) did not keep the largest free sweep")
	} else {
		p.Put(got)
	}
	p.Put(c)
	want := Bytes{Base: b.Bytes().Base + c.Bytes().Base, Lanes: c.Bytes().Lanes}
	if got := p.Bytes(); got != want {
		t.Fatalf("pool weighs %+v after the checked-out sweep returned, want %+v", got, want)
	}
	p.Trim(5) // more than there are: nothing to drop
	if size, _ := p.Stats(); size != 2 {
		t.Fatalf("Trim(5) of 2 sweeps left %d", size)
	}
	p.Trim(0)
	if size, inUse := p.Stats(); size != 0 || inUse != 0 || p.Bytes() != (Bytes{}) {
		t.Fatalf("Trim(0) left size %d, in use %d, %+v", size, inUse, p.Bytes())
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

// TestPoolRace hammers checkout/return, and Trim beside it, from 8
// goroutines; run under -race (ci.sh does) this pins the pool's
// synchronization, that no two goroutines ever share a checked-out sweep, and
// that the gauges Trim adjusts add up once every sweep is back.
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
				if i%16 == g {
					p.Trim(1)
				}
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
	p.Trim(0)
	if size, _ := p.Stats(); size != 0 || p.Bytes() != (Bytes{}) {
		t.Fatalf("Trim(0) of an idle pool left %d sweeps weighing %+v", size, p.Bytes())
	}
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
