package detrand

import (
	"hash/fnv"
	"net/netip"
	"testing"
)

func TestMixDeterministicAndSensitive(t *testing.T) {
	if Mix(1, 2, 3) != Mix(1, 2, 3) {
		t.Fatal("Mix not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := Mix(42, i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
	if Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix insensitive to argument order")
	}
}

func TestHashBytes(t *testing.T) {
	if HashBytes(7, []byte("abc")) != HashBytes(7, []byte("abc")) {
		t.Fatal("HashBytes not deterministic")
	}
	if HashBytes(7, []byte("abc")) == HashBytes(7, []byte("abd")) {
		t.Fatal("HashBytes insensitive to content")
	}
	if HashBytes(7, []byte("abc")) == HashBytes(8, []byte("abc")) {
		t.Fatal("HashBytes insensitive to seed")
	}
}

// TestHashBytesIsSeededFold pins the identity the simulator's one fold
// per datagram rests on: HashBytes(s, b) == Mix(s, FoldBytes(b)), with
// FoldBytes the standard 64-bit FNV-1a, and HashBytes's values those
// every loss and fault draw was taken with before the fold was split
// out.
func TestHashBytesIsSeededFold(t *testing.T) {
	for i, c := range []struct {
		seed uint64
		b    string
		want uint64
	}{
		{0, "", 0x178f736a2130cc06},
		{7, "abc", 0xc414db9b722a49d5},
		{1 << 63, "\x45\x00\x00\x1c datagram", 0x0e68f3237b836fa6},
	} {
		if got := HashBytes(c.seed, []byte(c.b)); got != c.want {
			t.Errorf("case %d: HashBytes = %#x, want %#x", i, got, c.want)
		}
	}
	b := make([]byte, 0, 300)
	for i := 0; i < 300; i++ {
		seed := Mix(uint64(i), 17)
		f := fnv.New64a()
		f.Write(b)
		if fold := FoldBytes(b); fold != f.Sum64() || HashBytes(seed, b) != Mix(seed, fold) {
			t.Fatalf("%d bytes: FoldBytes %#x, FNV-1a %#x; HashBytes %#x, Mix of the fold %#x",
				len(b), fold, f.Sum64(), HashBytes(seed, b), Mix(seed, fold))
		}
		b = append(b, byte(seed))
	}
}

func TestAddrWords(t *testing.T) {
	hi4, lo4 := AddrWords(netip.MustParseAddr("198.51.100.7"))
	hi6, lo6 := AddrWords(netip.MustParseAddr("2a00:1:2::53"))
	if hi4 == hi6 && lo4 == lo6 {
		t.Fatal("distinct addresses map to the same words")
	}
	if hi, lo := AddrWords(netip.Addr{}); hi != 0 || lo != 0 {
		t.Fatalf("invalid addr words = %d,%d, want 0,0", hi, lo)
	}
	// v4 and its mapped form hash identically (As16 is the mapped form).
	mhi, mlo := AddrWords(netip.MustParseAddr("::ffff:198.51.100.7"))
	if mhi != hi4 || mlo != lo4 {
		t.Fatal("mapped v4 differs from plain v4")
	}
}

func TestFloat64Range(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		f := Float64(i, 99)
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
	// Roughly uniform: mean of many draws near 0.5.
	sum := 0.0
	for i := uint64(0); i < 10000; i++ {
		sum += Float64(i, 7)
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		if v := Intn(10, i); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRandStreamsIndependent(t *testing.T) {
	a, b := Rand(1, 2), Rand(1, 2)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-key streams diverge")
		}
	}
	if Rand(1, 2).Uint64() == Rand(1, 3).Uint64() {
		t.Fatal("different-key streams coincide")
	}
}
