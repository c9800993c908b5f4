// Package par is the parallel runtime substrate: a small, allocation-conscious
// analogue of the CilkPlus constructs the paper's implementation uses
// (cilk_for and reducer bags). It provides bounded parallel-for loops with
// static and dynamic scheduling and per-worker "bags" whose contents are
// merged without locks at level barriers.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean GOMAXPROCS.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// For runs fn(i) for every i in [0, n) using p workers with contiguous static
// chunking. fn must be safe to call concurrently for distinct i. When p == 1
// or the loop is small (fewer than ~4 iterations per worker) it runs inline
// with no goroutines: spawning p goroutines for a handful of iterations costs
// more than the iterations themselves, and before this clamp the chunk math
// could degenerate to one goroutine per element for tiny n.
func For(n, p int, fn func(i int)) {
	p = Workers(p)
	if p > n {
		p = n
	}
	if p <= 1 || n <= 4*p {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + p - 1) / p
	for w := 0; w < p; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForWorker is like For but also passes the worker index in [0, p) so the
// callback can use per-worker scratch space. It returns the worker count
// actually used, which is the length callers should size scratch slices to.
// The grain parameter bounds dynamic chunk size; grain <= 0 picks a default.
func ForWorker(n, p, grain int, fn func(worker, i int)) int {
	p = Workers(p)
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	if p == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return 1
	}
	if grain <= 0 {
		grain = n / (8 * p)
		if grain < 64 {
			grain = 64
		}
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
	return p
}

// Bag accumulates values from many workers without locking: each worker
// appends to a private slice, and Drain concatenates them. It is the
// reduction-bag analogue used to build the next BFS frontier.
type Bag[T any] struct {
	parts [][]T
}

// NewBag returns a Bag for p workers.
func NewBag[T any](p int) *Bag[T] {
	if p < 1 {
		p = 1
	}
	return &Bag[T]{parts: make([][]T, p)}
}

// Add appends v to worker w's private part. Calls with distinct w are safe
// concurrently; calls sharing w must be serialized by the caller (each worker
// uses its own index).
func (b *Bag[T]) Add(w int, v T) {
	b.parts[w] = append(b.parts[w], v)
}

// Drain appends all parts to dst (reusing its capacity), resets the bag's
// parts to empty (retaining their capacity), and returns the combined slice.
func (b *Bag[T]) Drain(dst []T) []T {
	dst = dst[:0]
	for i, p := range b.parts {
		dst = append(dst, p...)
		b.parts[i] = p[:0]
	}
	return dst
}
