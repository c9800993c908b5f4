// Package bitset provides a compact, fixed-capacity bit set used by the BFS
// and decomposition substrates for visited/frontier bookkeeping.
//
// The set is not safe for concurrent mutation of the same word; callers that
// share a set across goroutines must either partition the index space so no
// two goroutines touch the same 64-bit word, or use the atomic TrySet.
package bitset

import "sync/atomic"

// Bitset is a fixed-capacity set of non-negative integers below Len().
type Bitset struct {
	words []uint64
	n     int
}

// New returns a Bitset able to hold values in [0, n).
func New(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity the set was created with.
func (b *Bitset) Len() int { return b.n }

// Set marks i as a member. i must be in [0, Len()).
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i from the set.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether i is a member.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// TrySet atomically sets bit i and reports whether this call changed it
// (i.e. returns false if the bit was already set). Safe for concurrent use.
func (b *Bitset) TrySet(i int) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Reset clears every bit without reallocating.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Word returns the wi-th backing word; bit k of Word(wi) is member wi*64+k.
// Bits at or beyond Len() are always zero. It lets traversals iterate
// word-granular — the bottom-up σ-BFS sweep of internal/core scans one word
// of unvisited vertices at a time.
func (b *Bitset) Word(wi int) uint64 { return b.words[wi] }
