package par

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 63, 1000} {
		for _, p := range []int{1, 2, 3, 8} {
			seen := make([]int32, n)
			For(n, p, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d p=%d: index %d visited %d times", n, p, i, c)
				}
			}
		}
	}
}

func TestForWorkerCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 100, 5000} {
		for _, p := range []int{1, 3, 16} {
			seen := make([]int32, n)
			used := ForWorker(n, p, 7, func(w, i int) {
				if w < 0 {
					t.Errorf("negative worker id")
				}
				atomic.AddInt32(&seen[i], 1)
			})
			if used < 1 && n > 0 {
				t.Fatalf("ForWorker returned %d workers", used)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d p=%d: index %d visited %d times", n, p, i, c)
				}
			}
		}
	}
}

func TestForWorkerIDsWithinRange(t *testing.T) {
	var maxW int64 = -1
	used := ForWorker(10000, 4, 16, func(w, i int) {
		for {
			old := atomic.LoadInt64(&maxW)
			if int64(w) <= old || atomic.CompareAndSwapInt64(&maxW, old, int64(w)) {
				break
			}
		}
	})
	if int(maxW) >= used {
		t.Fatalf("worker id %d out of range [0,%d)", maxW, used)
	}
}

// TestForSmallLoopRunsInline is the regression test for the tiny-n chunk
// math: loops with at most ~4 iterations per worker must run inline on the
// caller's goroutine (the plain append below would be flagged by -race
// otherwise), in index order, instead of spawning one goroutine per element.
func TestForSmallLoopRunsInline(t *testing.T) {
	const p = 8
	for _, n := range []int{1, 2, 5, 4 * p} {
		var order []int
		For(n, p, func(i int) { order = append(order, i) })
		if len(order) != n {
			t.Fatalf("n=%d: visited %d indices", n, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("n=%d: order = %v, want sequential", n, order)
			}
		}
	}
}

// skewedWork burns cycles proportional to the iteration's cost in a skewed
// distribution: the first index carries half the total work, mimicking one
// giant biconnected component among thousands of tiny ones.
func skewedWork(i int) {
	iters := 64
	if i == 0 {
		iters = 64 * 256
	}
	sink := 0
	for k := 0; k < iters; k++ {
		sink += k ^ (k << 1)
	}
	if sink == -1 {
		panic("unreachable")
	}
}

// BenchmarkSkewedStatic vs BenchmarkSkewedDynamic: For's static contiguous
// chunking pins the heavy index-0 chunk to one worker that also owns ~n/p
// light iterations, while ForWorker's grain-1 claiming lets the other workers
// drain the light tail concurrently. Run with -cpu 4 (or any p > 1) to see
// the gap.
func BenchmarkSkewedStatic(b *testing.B) {
	const n = 256
	p := runtime.GOMAXPROCS(0)
	for b.Loop() {
		For(n, p, skewedWork)
	}
}

func BenchmarkSkewedDynamic(b *testing.B) {
	const n = 256
	p := runtime.GOMAXPROCS(0)
	for b.Loop() {
		ForWorker(n, p, 1, func(_, i int) { skewedWork(i) })
	}
}

func TestBagDrain(t *testing.T) {
	b := NewBag[int](4)
	want := []int{}
	for w := 0; w < 4; w++ {
		for k := 0; k < 10; k++ {
			v := w*100 + k
			b.Add(w, v)
			want = append(want, v)
		}
	}
	if b.Size() != len(want) {
		t.Fatalf("Size = %d, want %d", b.Size(), len(want))
	}
	got := b.Drain(nil)
	sort.Ints(got)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("Drain returned %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if b.Size() != 0 {
		t.Fatalf("bag not empty after Drain: %d", b.Size())
	}
	// Drain into a reused buffer must not keep stale entries.
	b.Add(0, 42)
	got2 := b.Drain(got)
	if len(got2) != 1 || got2[0] != 42 {
		t.Fatalf("reuse Drain = %v, want [42]", got2)
	}
}

func TestBagZeroWorkers(t *testing.T) {
	b := NewBag[string](0)
	b.Add(0, "x")
	if got := b.Drain(nil); len(got) != 1 || got[0] != "x" {
		t.Fatalf("Drain = %v", got)
	}
}

// Property: For and a serial loop compute identical reductions.
func TestQuickForEquivalence(t *testing.T) {
	f := func(vals []int32, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		var parSum int64
		For(len(vals), p, func(i int) { atomic.AddInt64(&parSum, int64(vals[i])) })
		var serSum int64
		for _, v := range vals {
			serSum += int64(v)
		}
		return parSum == serSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyRange pins the n == 0 contract for every loop primitive: the
// callback must never fire, and ForWorker must still report at least one
// worker because callers size per-worker scratch slices by its return value.
func TestEmptyRange(t *testing.T) {
	var calls int32
	count := func(args ...int) { atomic.AddInt32(&calls, 1) }
	For(0, 4, func(i int) { count(i) })
	if calls != 0 {
		t.Fatalf("empty range invoked the callback %d times", calls)
	}
	for _, p := range []int{0, 1, 4} {
		used := ForWorker(0, p, 0, func(w, i int) { count(w, i) })
		if used < 1 {
			t.Fatalf("ForWorker(0, %d) returned %d workers; scratch sizing needs >= 1", p, used)
		}
	}
	if calls != 0 {
		t.Fatalf("ForWorker on empty range invoked the callback %d times", calls)
	}
}

// TestFewerTasksThanWorkers pins n < p: every index runs exactly once and
// worker ids stay in [0, used).
func TestFewerTasksThanWorkers(t *testing.T) {
	const n, p = 3, 16
	seen := make([]int32, n)
	used := ForWorker(n, p, 0, func(w, i int) {
		if w < 0 || w >= p {
			t.Errorf("worker id %d out of range", w)
		}
		atomic.AddInt32(&seen[i], 1)
	})
	if used < 1 || used > p {
		t.Fatalf("ForWorker used = %d, want within [1,%d]", used, p)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("ForWorker: index %d ran %d times", i, c)
		}
	}
	seen = make([]int32, n)
	For(n, p, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("For: index %d ran %d times", i, c)
		}
	}
}
