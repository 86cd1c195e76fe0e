package dnswire

import (
	"net/netip"
	"testing"
)

// fuzzSeeds packs a spread of golden messages — query, EDNS query,
// referral with glue, answer, SOA-bearing NXDOMAIN, truncated reply —
// so the fuzzer starts from structurally valid corners of the format.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	add := func(m *Message) {
		b, err := m.Pack()
		if err != nil {
			tb.Fatalf("seed pack: %v", err)
		}
		seeds = append(seeds, b)
	}

	q := NewQuery(0x1234, "www.dns-lab.org", TypeA)
	add(q)

	eq := NewQuery(0xbeef, "v4.dns-lab.org", TypeAAAA)
	eq.SetEDNS(DefaultEDNSSize)
	add(eq)

	ref := q.Reply()
	ref.Authority = []RR{
		{Name: "dns-lab.org", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns1.dns-lab.org"},
	}
	ref.Additional = []RR{
		{Name: "ns1.dns-lab.org", Type: TypeA, Class: ClassIN, TTL: 86400,
			Addr: netip.MustParseAddr("203.0.113.1")},
		{Name: "ns1.dns-lab.org", Type: TypeAAAA, Class: ClassIN, TTL: 86400,
			Addr: netip.MustParseAddr("2001:db8::1")},
	}
	add(ref)

	ans := q.Reply()
	ans.AA = true
	ans.Answer = []RR{
		{Name: "www.dns-lab.org", Type: TypeA, Class: ClassIN, TTL: 300,
			Addr: netip.MustParseAddr("203.0.113.9")},
	}
	add(ans)

	nx := q.Reply()
	nx.RCode = RCodeNXDomain
	nx.Authority = []RR{
		{Name: "dns-lab.org", Type: TypeSOA, Class: ClassIN, TTL: 900, SOA: &SOAData{
			MName: "ns1.dns-lab.org", RName: "research.dns-lab.org",
			Serial: 2019110601, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 60,
		}},
	}
	add(nx)

	tc := q.Reply()
	tc.TC = true
	add(tc)

	ptr := NewQuery(7, "9.113.0.203.in-addr.arpa", TypePTR).Reply()
	ptr.Answer = []RR{
		{Name: "9.113.0.203.in-addr.arpa", Type: TypePTR, Class: ClassIN, TTL: 3600,
			Target: "r9.as1000.example.net"},
	}
	add(ptr)

	return seeds
}

// FuzzUnpack asserts the wire parser's safety properties on arbitrary
// bytes: Unpack never panics; whatever it accepts, Pack can serialize
// without panicking; and what Pack emits, Unpack accepts again with the
// header and section counts preserved and every question and record
// name equal to the one packed (parse→serialize→parse is a fixed point
// of acceptance, and compression never swaps one name for another).
func FuzzUnpack(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// Unpack can accept messages Pack declines to re-emit (e.g.
			// names that only fit via compression); rejecting is fine,
			// panicking is not.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message rejected: %v\noriginal: %x\nrepacked: %x", err, data, repacked)
		}
		if m2.ID != m.ID || m2.QR != m.QR || m2.OpCode != m.OpCode || m2.RCode != m.RCode {
			t.Fatalf("header changed across repack: %+v vs %+v", m, m2)
		}
		if len(m2.Question) != len(m.Question) || len(m2.Answer) != len(m.Answer) ||
			len(m2.Authority) != len(m.Authority) || len(m2.Additional) != len(m.Additional) {
			t.Fatalf("section counts changed across repack")
		}
		if err := survives(m, repacked); err != nil {
			t.Fatalf("repack changed a name: %v\noriginal: %x\nrepacked: %x", err, data, repacked)
		}
	})
}
