package server

import (
	"testing"
)

// The top-K hit path — the lane overloaded readers live on — must be
// allocation-free once the epoch's ranking is built. (JSON encoding sits
// outside this gate; the handler's own data path is what it pins to zero.)
func TestTopKCoalescedHitAllocs(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	e, err := r.Load(triangleSpec("coalloc"))
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("state = %s (%s)", info.State, info.Error)
	}
	if _, _, hit, err := e.TopKCoalesced(2); err != nil || hit {
		t.Fatalf("priming query: hit=%v err=%v", hit, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, hit, err := e.TopKCoalesced(2); err != nil || !hit {
			t.Fatalf("hit=%v err=%v, want cached hit", hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("coalesced hit path allocates %.1f/op, want 0", allocs)
	}
}
