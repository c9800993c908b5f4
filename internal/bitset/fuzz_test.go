package bitset

import "testing"

// FuzzWordRoundTrip drives a Bitset with an interleaved op stream — plain
// sets, clears and atomic TrySets — against a plain map model, then checks
// that the bit view (Get) and the word view (Word) reconstruct exactly the
// same membership. Each byte of data encodes one op: the low 2 bits pick the
// op, the rest (combined with a rolling position) pick the target.
func FuzzWordRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 64, 128, 7})
	f.Add([]byte{0x41, 0x00, 0xff, 0x81, 0x40, 0x23})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 300 // spans several words plus a partial tail word
		b := New(n)
		model := make(map[int]bool)
		pos := 0
		for _, op := range data {
			pos = (pos*31 + int(op>>2)) % n
			switch op & 3 {
			case 0:
				b.Set(pos)
				model[pos] = true
			case 1:
				b.Clear(pos)
				delete(model, pos)
			default:
				if won := b.TrySet(pos); won == model[pos] {
					t.Fatalf("TrySet(%d) = %v with the bit already %v", pos, won, model[pos])
				}
				model[pos] = true
			}
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != model[i] {
				t.Fatalf("Get(%d) = %v, model %v", i, b.Get(i), model[i])
			}
		}
		// Word round-trip: each backing word must be exactly the model's
		// members of that word, with bits at or beyond Len zero.
		for wi := 0; wi*64 < n; wi++ {
			var want uint64
			for k := 0; k < 64; k++ {
				if model[wi<<6+k] {
					want |= 1 << uint(k)
				}
			}
			if got := b.Word(wi); got != want {
				t.Fatalf("Word(%d) = %#x, model says %#x", wi, got, want)
			}
		}
	})
}
