package detrand

import (
	"math/rand"
	"testing"
)

// TestCountedMatchesRand pins the contract the streaming population
// view depends on: a generator over a Counted source produces the
// identical draw sequence as detrand.Rand with the same identity.
func TestCountedMatchesRand(t *testing.T) {
	want := Rand(7, 71)
	got := NewCounted(7, 71).Rand()
	for i := 0; i < 10_000; i++ {
		switch i % 4 {
		case 0:
			w, g := want.Float64(), got.Float64()
			if w != g {
				t.Fatalf("draw %d: Float64 %v != %v", i, g, w)
			}
		case 1:
			w, g := want.Intn(1+i), got.Intn(1+i)
			if w != g {
				t.Fatalf("draw %d: Intn %v != %v", i, g, w)
			}
		case 2:
			w, g := want.Int63(), got.Int63()
			if w != g {
				t.Fatalf("draw %d: Int63 %v != %v", i, g, w)
			}
		default:
			w, g := want.Uint64(), got.Uint64()
			if w != g {
				t.Fatalf("draw %d: Uint64 %v != %v", i, g, w)
			}
		}
	}
}

// TestCountedSkipResumesStream pins the replay property: recording
// Draws() at a boundary and Skip()ing a fresh source to that count
// resumes the identical continuation stream, including across draws
// that consume a variable number of source steps (Intn rejection).
func TestCountedSkipResumesStream(t *testing.T) {
	consume := func(rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				rng.Float64()
			case 1:
				rng.Intn(3 + i)
			default:
				rng.Int63()
			}
		}
	}
	for _, prefix := range []int{0, 1, 17, 1000} {
		full := NewCounted(42, 99)
		rng := full.Rand()
		consume(rng, prefix)
		mark := full.Draws()

		resumed := NewCounted(42, 99)
		resumed.Skip(mark)
		if resumed.Draws() != mark {
			t.Fatalf("prefix %d: Draws after Skip = %d, want %d", prefix, resumed.Draws(), mark)
		}
		// A clone taken at the boundary resumes the same continuation
		// and advances apart from the stream it was copied from.
		clone := full.Clone()
		crng := clone.Rand()
		rrng := resumed.Rand()
		for i := 0; i < 1000; i++ {
			c := crng.Int63()
			if w, g := rng.Int63(), rrng.Int63(); w != g || c != w {
				t.Fatalf("prefix %d: continuation draw %d: skipped %v, cloned %v, want %v", prefix, i, g, c, w)
			}
		}
		crng.Int63()
		if clone.Draws() != full.Draws()+1 {
			t.Fatalf("prefix %d: clone at %d draws, original at %d", prefix, clone.Draws(), full.Draws())
		}
	}
}
