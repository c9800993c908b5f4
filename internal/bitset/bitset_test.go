package bitset

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// count tallies members through Get, the bit view every test trusts.
func count(b *Bitset) int {
	c := 0
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			c++
		}
	}
	return c
}

func TestSetGetClear(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := count(b); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := count(b); got != 7 {
		t.Fatalf("Count after clear = %d, want 7", got)
	}
}

func TestReset(t *testing.T) {
	b := New(1000)
	for i := 0; i < 1000; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if count(b) != 0 {
		t.Fatalf("Count after Reset = %d, want 0", count(b))
	}
}

func TestTrySetConcurrent(t *testing.T) {
	const n = 4096
	b := New(n)
	var wins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			local := 0
			for k := 0; k < 20000; k++ {
				if b.TrySet(r.Intn(n)) {
					local++
				}
			}
			mu.Lock()
			wins += int64(local)
			mu.Unlock()
		}(int64(w))
	}
	wg.Wait()
	if int(wins) != count(b) {
		t.Fatalf("TrySet wins %d != Count %d: a bit was won twice", wins, count(b))
	}
}

// Property: membership after a sequence of sets matches a map-based model.
func TestQuickModel(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := New(1 << 16)
		model := map[int]bool{}
		for _, u := range idxs {
			b.Set(int(u))
			model[int(u)] = true
		}
		if count(b) != len(model) {
			return false
		}
		for i := range model {
			if !b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWordAccess(t *testing.T) {
	b := New(130)
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if got := b.Word(0); got != 1|1<<63 {
		t.Fatalf("Word(0) = %#x", got)
	}
	if got := b.Word(1); got != 1 {
		t.Fatalf("Word(1) = %#x", got)
	}
	if got := b.Word(2); got != 1<<1 {
		t.Fatalf("Word(2) = %#x", got)
	}
}

func TestZeroCapacity(t *testing.T) {
	b := New(0)
	if count(b) != 0 || b.Len() != 0 {
		t.Fatal("zero-capacity set misbehaves")
	}
	b2 := New(-5)
	if b2.Len() != 0 {
		t.Fatal("negative capacity not clamped")
	}
}
