package detrand

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (the
// rngSource behind rand.NewSource), reproduced draw for draw but seeded
// lazily.
//
// rngSource.Seed runs a Lehmer LCG, x[n+1] = 48271·x[n] mod (2³¹−1),
// from the normalized seed x[0] and sets state word i to
//
//	rngCooked[i] ^ (x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i])
//
// which costs ~1,840 LCG steps and a 4.9 KB state per stream, while a
// causally keyed stream usually serves one to a few draws. Draw k reads
// words 334−k (feed) and 607−k (tap) and writes the sum back to the
// feed word. For k ≤ 273 neither word has been written yet, so the draw
// is a closed form of x[0]: x[n] = x[0]·48271ⁿ mod (2³¹−1), with the
// powers tabulated once. A source holds only x[0] and its position
// until a stream reaches draw 274; then it builds the full state from
// the same closed form, replays the draws it served, and steps in place
// exactly as rngSource does.
type source struct {
	x0        uint64         // the seed as rngSource.Seed normalizes it
	tap, feed int            // rngSource's indices; they count draws while lazy
	vec       *[rngLen]int64 // the feedback register; nil while lazy
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
	// lazyFloor is the feed index once rngTap draws are served: the next
	// draw's tap word (333) is the one draw 1 wrote.
	lazyFloor = rngLen - 2*rngTap
)

var (
	// cooked is math/rand's rngCooked table.
	cooked [rngLen]int64
	// lcgPow[3i+j] = 48271^(21+3i+j) mod (2³¹−1): the multipliers that
	// take x[0] to the three LCG outputs state word i mixes in.
	lcgPow [3 * rngLen]uint64
)

func init() {
	m := uint64(1)
	for n := 0; n < 21; n++ {
		m = mulmod31(m, lcgMul)
	}
	for i := range lcgPow {
		lcgPow[i] = m
		m = mulmod31(m, lcgMul)
	}

	// Recover rngCooked from seed 1's first rngLen draws by inverting
	// the feedback, so math/rand stays the table's only source of truth.
	// Draws k > rngTap add the word at feed (941−k) mod 607, still
	// original, to draw k−rngTap's output at tap; draws k ≤ rngTap add
	// the original words 334−k and 607−k.
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(941-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[334-k] = out[k] - v[607-k]
	}
	for i := range v {
		cooked[i] = v[i] ^ seedBits(1, i)
	}
}

// mulmod31 returns a·b mod (2³¹−1) for a, b < 2³¹ by two Mersenne folds.
func mulmod31(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// seedBits is the LCG part of state word i for normalized seed x0.
func seedBits(x0 uint64, i int) int64 {
	m := lcgPow[3*i : 3*i+3 : 3*i+3]
	return int64(mulmod31(x0, m[0])<<40 ^ mulmod31(x0, m[1])<<20 ^ mulmod31(x0, m[2]))
}

// word is state word i as Seed leaves it.
func (s *source) word(i int) int64 { return cooked[i] ^ seedBits(s.x0, i) }

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets the stream exactly as rngSource.Seed does.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = rngLen, rngLen-rngTap
	s.vec = nil
}

// Uint64 returns the next draw. The materialized path is rngSource's
// step; Int63 repeats it rather than calling Uint64, which keeps long
// streams as cheap per draw as rngSource.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		return uint64(s.lazy())
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw with the top bit cleared.
func (s *source) Int63() int64 {
	if s.vec == nil {
		return s.lazy() & rngMask
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// lazy serves a draw before the state exists: from the closed form
// within the first rngTap draws, else by materializing first.
func (s *source) lazy() int64 {
	if s.feed == lazyFloor {
		s.materialize()
		return int64(s.Uint64())
	}
	s.tap--
	s.feed--
	return s.word(s.feed) + s.word(s.tap)
}

// materialize builds the state Seed would have left and replays the
// draws already served into it.
func (s *source) materialize() {
	v := new([rngLen]int64)
	for i := range v {
		v[i] = s.word(i)
	}
	for f, t := rngLen-rngTap, rngLen; f > s.feed; {
		f--
		t--
		v[f] += v[t]
	}
	s.vec = v
}

// skip advances the stream n draws without producing them. Within the
// lazy window only the indices move.
func (s *source) skip(n uint64) {
	if s.vec == nil {
		lazy := uint64(s.feed - lazyFloor)
		if n <= lazy {
			s.tap -= int(n)
			s.feed -= int(n)
			return
		}
		s.tap -= int(lazy)
		s.feed -= int(lazy)
		n -= lazy
		s.materialize()
	}
	v, tap, feed := s.vec, s.tap, s.feed
	for ; n > 0; n-- {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		v[feed] += v[tap]
	}
	s.tap, s.feed = tap, feed
}
