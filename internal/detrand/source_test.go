package detrand

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// testSeeds covers rngSource.Seed's normalization edges (zero and the
// multiples of 2³¹−1 map to 89482311, negatives wrap) and a spread of
// the Mix-derived seeds Rand actually feeds it.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, int32max - 1, -(int32max - 1),
		1 << 31, -(1 << 31), 2 * int32max, math.MinInt64, math.MaxInt64,
		89482311,
	}
	for i := uint64(0); i < 200; i++ {
		seeds = append(seeds, int64(Mix(i, 0x5eed)))
	}
	return seeds
}

// drawCounts straddle the lazy window: draw 273 is the last closed-form
// draw, 274 the first after materializing, 607 a full register turn.
var drawCounts = []int{0, 1, 272, 273, 274, 607, 2000}

// compareDraws draws n values from both sources, alternating Int63 and
// Uint64 the way rand.Rand's methods mix them.
func compareDraws(t *testing.T, label string, got *source, want rand.Source64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: draw %d: Int63 %d, math/rand %d", label, i+1, g, w)
			}
		} else if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: draw %d: Uint64 %d, math/rand %d", label, i+1, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins source to rand.NewSource draw for draw,
// across the lazy window, the materialization at draw 274 and a Seed
// call in the middle of a stream.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := testSeeds()
	for si, seed := range seeds {
		for _, n := range drawCounts {
			label := "seed " + strconv.FormatInt(seed, 10) + ", " + strconv.Itoa(n) + " draws"
			got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
			compareDraws(t, label, got, want, n)

			// Reseed mid-stream, lazy or materialized, and run past the
			// window again.
			next := seeds[(si+1)%len(seeds)]
			got.Seed(next)
			want.Seed(next)
			compareDraws(t, label+", reseeded", got, want, 300)
		}
	}
}

// TestLazyDrawIsSumOfWords pins the closed form's shape. Go parses
// a ^ b + c ^ d as ((a ^ b) + c) ^ d, so writing the draw as
// cooked ^ bits + cooked ^ bits without parentheses yields a different
// stream; every seed here tells the two apart.
func TestLazyDrawIsSumOfWords(t *testing.T) {
	for _, seed := range testSeeds() {
		s := newSource(seed)
		c0, b0 := cooked[333], seedBits(s.x0, 333)
		c1, b1 := cooked[606], seedBits(s.x0, 606)
		want := rand.NewSource(seed).Int63()
		if got := ((c0 ^ b0) + (c1 ^ b1)) & rngMask; got != want {
			t.Fatalf("seed %d: first draw %d, math/rand %d", seed, got, want)
		}
		if misparsed := (c0 ^ b0 + c1 ^ b1) & rngMask; misparsed == want {
			t.Fatalf("seed %d: the misparsed form matches too; the seed cannot catch it", seed)
		}
		if got := s.Int63(); got != want {
			t.Fatalf("seed %d: source's first draw %d, math/rand %d", seed, got, want)
		}
	}
}

// TestSourceSkipMatchesDraws pins skip against drawing: inside the
// lazy window, across it, and from an already materialized state.
func TestSourceSkipMatchesDraws(t *testing.T) {
	for _, seed := range testSeeds()[:40] {
		for _, n := range drawCounts {
			for _, split := range []int{0, n / 2, n} {
				got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
				got.skip(uint64(split))
				if split < n {
					got.Int63() // one real draw between two skips
					got.skip(uint64(n - split - 1))
				}
				for i := 0; i < n; i++ {
					want.Uint64()
				}
				label := "seed " + strconv.FormatInt(seed, 10) + ", skip " + strconv.Itoa(n) + " split at " + strconv.Itoa(split)
				compareDraws(t, label, got, want, 700)
			}
		}
	}
}

// TestRandMatchesMathRand pins Rand to the generator it replaced,
// rand.New(rand.NewSource(int64(Mix(vals...)))), through the *rand.Rand
// methods the simulation calls.
func TestRandMatchesMathRand(t *testing.T) {
	for i := uint64(0); i < 50; i++ {
		vals := []uint64{i, 1 << 40, 77}
		got := Rand(vals...)
		want := rand.New(rand.NewSource(int64(Mix(vals...))))
		for j := 0; j < 120; j++ {
			if g, w := got.Intn(1+j*j), want.Intn(1+j*j); g != w {
				t.Fatalf("stream %d call %d: Intn %d != %d", i, j, g, w)
			}
			if g, w := got.Int63n(1<<40+int64(j)), want.Int63n(1<<40+int64(j)); g != w {
				t.Fatalf("stream %d call %d: Int63n %d != %d", i, j, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("stream %d call %d: Float64 %v != %v", i, j, g, w)
			}
		}
		gp, wp := got.Perm(40), want.Perm(40)
		for k := range wp {
			if gp[k] != wp[k] {
				t.Fatalf("stream %d: Perm differs at %d", i, k)
			}
		}
		gs, ws := make([]int, 64), make([]int, 64)
		for k := range gs {
			gs[k], ws[k] = k, k
		}
		got.Shuffle(len(gs), func(a, b int) { gs[a], gs[b] = gs[b], gs[a] })
		want.Shuffle(len(ws), func(a, b int) { ws[a], ws[b] = ws[b], ws[a] })
		for k := range ws {
			if gs[k] != ws[k] {
				t.Fatalf("stream %d: Shuffle differs at %d", i, k)
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("stream %d: trailing Uint64 %d != %d", i, g, w)
		}
	}
}

// TestReseedMatchesRand pins Reseed to a fresh Rand over 300 keys: one
// generator, reseeded per key, draws what Rand(vals...) draws through
// Intn and Int63n (routing.RandomHostAddr's draws), Float64 and Uint64,
// whatever the previous key's stream served. Every 50th stream runs
// past draw 273, so the next reseed meets a source that built its
// register.
func TestReseedMatchesRand(t *testing.T) {
	r := Rand(9)
	for i := uint64(0); i < 300; i++ {
		vals := []uint64{i, 1 << 40, 71}
		Reseed(r, vals...)
		want := Rand(vals...)
		n := 1 + int(i%7)
		if i%50 == 7 {
			n = 100 // four draws a round: past draw 273
		}
		for j := 0; j < n; j++ {
			if g, w := r.Intn(98), want.Intn(98); g != w {
				t.Fatalf("key %d round %d: Intn %d != %d", i, j, g, w)
			}
			if g, w := r.Int63n(1<<24-2+int64(j)), want.Int63n(1<<24-2+int64(j)); g != w {
				t.Fatalf("key %d round %d: Int63n %d != %d", i, j, g, w)
			}
			if g, w := r.Float64(), want.Float64(); g != w {
				t.Fatalf("key %d round %d: Float64 %v != %v", i, j, g, w)
			}
			if g, w := r.Uint64(), want.Uint64(); g != w {
				t.Fatalf("key %d round %d: Uint64 %d != %d", i, j, g, w)
			}
		}
	}
}

var sinkDraw int64

// drawStream opens a stream and takes 16 draws, the shape of a
// per-target or per-resolver stream.
func drawStream(i uint64) {
	r := Rand(i, 3)
	for j := 0; j < 16; j++ {
		sinkDraw += r.Int63()
	}
}

// TestRandStreamCost pins what a short stream costs: the *rand.Rand and
// the source, not math/rand's 4.9 KB seeded state.
func TestRandStreamCost(t *testing.T) {
	i := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() { i++; drawStream(i) }); allocs > 2 {
		t.Errorf("Rand + 16 draws: %v allocs per stream, want at most 2", allocs)
	}
	const streams = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < streams; i++ {
		drawStream(i)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / streams; per >= 256 {
		t.Errorf("Rand + 16 draws: %d B per stream, want under 256", per)
	}
}

// BenchmarkRandStream measures one stream opened and drained: a few
// draws stay in the closed form, 274 and more pay the materialization.
func BenchmarkRandStream(b *testing.B) {
	for _, n := range []int{1, 16, 273, 274, 1000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := Rand(uint64(i), 3)
				for j := 0; j < n; j++ {
					sinkDraw += r.Int63()
				}
			}
		})
	}
}
