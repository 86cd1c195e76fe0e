package dnswire

import (
	"fmt"
	"testing"
)

// decodeQuestion decodes a query for name into m and returns the
// question's name.
func decodeQuestion(t *testing.T, m *Message, name Name) Name {
	t.Helper()
	if err := m.Unpack(mustPack(t, NewQuery(1, name, TypeA))); err != nil {
		t.Fatal(err)
	}
	return m.Q().Name
}

// setOf returns the set of the recent names that n goes in.
func setOf(t *testing.T, n Name) int {
	t.Helper()
	var c nameCache
	c.name([]byte(n))
	for i := range c {
		if c[i][0] == n {
			return i
		}
	}
	t.Fatalf("%q not cached", n)
	return -1
}

// TestRecentNameKeepsCase: a name that differs from a recent one only
// in ASCII case decodes in its own case, since the resolver's 0x20
// check compares the echoed question byte for byte. The case variants
// are those that share a set with the lower-case name.
func TestRecentNameKeepsCase(t *testing.T) {
	const base = "www.dns-lab.org"
	names := []Name{base}
	for bits := 1; bits < 1<<6 && len(names) < 3; bits++ {
		b := []byte(base)
		for i, j := 0, 0; i < len(b) && j < 6; i++ {
			if b[i] >= 'a' && b[i] <= 'z' {
				if bits>>j&1 == 1 {
					b[i] -= 'a' - 'A'
				}
				j++
			}
		}
		if n := Name(b); setOf(t, n) == setOf(t, base) {
			names = append(names, n)
		}
	}
	if len(names) < 3 {
		t.Fatalf("found only %q in the set of %q", names, base)
	}
	var m Message
	for round := 0; round < 2; round++ {
		for _, name := range names {
			if got := decodeQuestion(t, &m, name); string(got) != string(name) {
				t.Fatalf("decoded %q as %q", name, got)
			}
		}
	}
}

// TestRecentNamesEvicted: three names that share one set of the recent
// names evict one another in turn and still decode as themselves; two
// of them fit the set's two ways, so alternating them makes no string.
func TestRecentNamesEvicted(t *testing.T) {
	names := []Name{"c0.example"}
	for i := 1; len(names) < 3; i++ {
		if n := Name(fmt.Sprintf("c%d.example", i)); setOf(t, n) == setOf(t, names[0]) {
			names = append(names, n)
		}
	}
	var m Message
	payloads := make([][]byte, len(names))
	for i, n := range names {
		payloads[i] = mustPack(t, NewQuery(1, n, TypeA))
	}
	for round := 0; round < 3; round++ {
		for _, n := range names {
			if got := decodeQuestion(t, &m, n); got != n {
				t.Fatalf("round %d: decoded %q as %q", round, n, got)
			}
		}
	}
	decode := func(i int) {
		if m.Unpack(payloads[i]) != nil || m.Q().Name != names[i] {
			t.Fatalf("decoded %q as %q", names[i], m.Q().Name)
		}
	}
	var i int
	if a := testing.AllocsPerRun(99, func() { decode(i % 3); i++ }); a != 1 {
		t.Fatalf("cycling three names through one set allocates %v times per decode, want 1", a)
	}
	decode(0)
	decode(1)
	i = 0
	if a := testing.AllocsPerRun(100, func() { decode(i % 2); i++ }); a != 0 {
		t.Fatalf("alternating two names of one set allocates %v times per decode, want 0", a)
	}
}

// TestWarmUnpackAllocations pins decoding into a Message that decoded
// the same message before: the sections reuse their storage and every
// name is a recent one, so a referral makes no object and an NXDOMAIN
// only its SOAData. Unpack keeps no recent names.
func TestWarmUnpackAllocations(t *testing.T) {
	pinned := 0
	for _, s := range fuzzSeeds(t) {
		fresh, err := Unpack(s)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.names != nil {
			t.Fatal("Unpack kept its names")
		}
		var want float64
		switch {
		case fresh.RCode == RCodeNXDomain:
			want = 1
		case len(fresh.Authority) > 0 && fresh.Authority[0].Type == TypeNS:
		default:
			continue
		}
		pinned++
		var m Message
		if a := testing.AllocsPerRun(100, func() {
			if err := m.Unpack(s); err != nil {
				t.Fatal(err)
			}
		}); a != want {
			t.Fatalf("a warm decode of %v allocates %v times, want %v", fresh, a, want)
		}
	}
	if pinned != 2 {
		t.Fatalf("pinned %d seeds, want the referral and the NXDOMAIN", pinned)
	}
}
