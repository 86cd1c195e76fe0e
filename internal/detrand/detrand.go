// Package detrand derives deterministic pseudo-randomness from causal
// identity instead of consuming shared sequential streams.
//
// The parallel sharded survey engine (doors.SurveyConfig.Shards)
// requires that every random draw in the simulation depend only on
// *what* is being decided (a packet's bytes, a target's address, an
// AS number) and the experiment seed — never on the global order in
// which draws happen. A shared math/rand stream consumed in event
// order would make results depend on how target ASes interleave
// within a shard, and therefore on the shard count. Hash-derived
// draws keyed on stable identities make every per-AS event timeline
// invariant under resharding, which is what lets K shards merge into
// a bit-identical analysis.Report for any K (including K=1).
//
// The generator is a splitmix64 chain over the inputs; it is a
// simulation PRNG, not a cryptographic one.
package detrand

import (
	"math/rand"
	"net/netip"
)

// splitmix64 is the finalizer from Steele et al.'s SplitMix, also used
// to seed xoshiro generators: an invertible avalanche over 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix folds the values into a single well-distributed 64-bit hash.
//
//doors:hotpath
func Mix(vals ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909) // fractional bits of sqrt(2)
	for _, v := range vals {
		h = splitmix64(h ^ v)
	}
	return splitmix64(h)
}

// HashBytes folds a byte slice (e.g. a serialized packet) into a seed
// hash. FNV-1a accumulates the bytes; splitmix64 finalizes so that
// single-bit input differences avalanche across the output.
//
//doors:hotpath
func HashBytes(seed uint64, b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return Mix(seed, h)
}

// AddrWords returns an address as two 64-bit words (the 16-byte form,
// big-endian halves). Invalid addresses hash as zero words.
//
//doors:hotpath
func AddrWords(a netip.Addr) (uint64, uint64) {
	if !a.IsValid() {
		return 0, 0
	}
	b := a.As16()
	hi := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	lo := uint64(b[8])<<56 | uint64(b[9])<<48 | uint64(b[10])<<40 | uint64(b[11])<<32 |
		uint64(b[12])<<24 | uint64(b[13])<<16 | uint64(b[14])<<8 | uint64(b[15])
	return hi, lo
}

// Float64 maps the mixed hash of vals to [0, 1).
//
//doors:hotpath
func Float64(vals ...uint64) float64 {
	return float64(Mix(vals...)>>11) / (1 << 53)
}

// Intn maps the mixed hash of vals to [0, n). n must be > 0.
//
//doors:hotpath
func Intn(n int, vals ...uint64) int {
	return int(Mix(vals...) % uint64(n))
}

// Rand returns a math/rand generator seeded from the mixed hash of
// vals: a private sequential stream whose identity — not position in
// any global order — is determined by the inputs. Use one per causal
// domain (per target, per AS). The stream is rand.NewSource's, draw for
// draw, but its seeding is deferred until the stream outgrows a closed
// form (see source), so a stream that serves a few draws costs two
// small allocations instead of a 4.9 KB state.
func Rand(vals ...uint64) *rand.Rand {
	return rand.New(newSource(int64(Mix(vals...))))
}

// Counted is a causally-seeded rand.Source64 that counts how many
// times its state advances. Every generator method of *rand.Rand
// consumes exactly one source draw per Int63/Uint64 call (rejection
// sampling in Intn shows up as extra counted draws), so recording
// Draws() at a boundary and later Skip()ing to that count on a fresh
// Counted resumes the stream at exactly that boundary. This is what
// lets a consumer of one long sequential stream (the ditl population
// generator) be replayed from the middle without regenerating the
// prefix.
type Counted struct {
	src source
	n   uint64
}

// NewCounted returns a counting source seeded exactly like Rand(vals...):
// rand.New(c) and Rand(vals...) produce identical draw sequences.
func NewCounted(vals ...uint64) *Counted {
	c := new(Counted)
	c.src.Seed(int64(Mix(vals...)))
	return c
}

// Int63 advances the stream one step.
func (c *Counted) Int63() int64 { c.n++; return c.src.Int63() }

// Uint64 advances the stream one step.
func (c *Counted) Uint64() uint64 { c.n++; return c.src.Uint64() }

// Seed reseeds the underlying source (required by rand.Source; the
// draw count is NOT reset — callers wanting a fresh stream build a
// fresh Counted).
func (c *Counted) Seed(s int64) { c.src.Seed(s) }

// Draws reports how many times the source state has advanced.
func (c *Counted) Draws() uint64 { return c.n }

// Skip advances the stream n steps without handing the values out,
// stepping the state in place.
func (c *Counted) Skip(n uint64) {
	c.src.skip(n)
	c.n += n
}

// Clone returns an independent copy of the stream at its current
// position: the same draw count and a deep copy of the feedback
// register (4.9 KB once the stream has materialized it), so the copy
// resumes exactly where c stands and the two advance separately.
func (c *Counted) Clone() *Counted {
	d := *c
	if c.src.vec != nil {
		vec := *c.src.vec
		d.src.vec = &vec
	}
	return &d
}

// Rand wraps the counting source in a *rand.Rand. Because Counted
// implements rand.Source64, the generator dispatches exactly as it
// does over the raw source, so the value stream matches Rand(vals...)
// draw for draw.
func (c *Counted) Rand() *rand.Rand { return rand.New(c) }
