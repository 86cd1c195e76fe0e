package dnswire

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
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
// bytes: Unpack never panics; Message.Unpack decodes what Unpack does,
// both into a message holding a longer one and into one whose recent
// names are the seeds'; whatever Unpack accepts, Pack can serialize
// without panicking; and what Pack emits, Unpack accepts again with the
// header and section counts preserved and every question and record
// name equal to the one packed (parse→serialize→parse is a fixed point
// of acceptance, and compression never swaps one name for another).
func FuzzUnpack(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		checkUnpackInto(t, staleMessage(m), data, m, err)
		checkUnpackInto(t, warmMessage(t, seeds), data, m, err)
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

// checkUnpackInto holds Message.Unpack to Unpack: decoded into m, data
// gives Unpack's result want, counting a nil section and an empty one
// as equal and ignoring m's recent names, or fails with Unpack's error
// wantErr.
func checkUnpackInto(t *testing.T, m *Message, data []byte, want *Message, wantErr error) {
	t.Helper()
	err := m.Unpack(data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Message.Unpack error %v, Unpack error %v\ndata: %x", err, wantErr, data)
	}
	if err != nil {
		return
	}
	norm := func(m Message) Message {
		m.names = nil
		for _, sec := range []*[]RR{&m.Answer, &m.Authority, &m.Additional} {
			if len(*sec) == 0 {
				*sec = nil
			}
		}
		if len(m.Question) == 0 {
			m.Question = nil
		}
		return m
	}
	if got, want := norm(*m), norm(*want); !reflect.DeepEqual(got, want) {
		t.Fatalf("Message.Unpack = %+v, Unpack = %+v\ndata: %x", got, want, data)
	}
}

// warmMessage is a message that has decoded every seed, so its recent
// names are theirs.
func warmMessage(t *testing.T, seeds [][]byte) *Message {
	t.Helper()
	m := new(Message)
	for _, s := range seeds {
		if err := m.Unpack(s); err != nil {
			t.Fatalf("seed decode: %v", err)
		}
	}
	return m
}

// staleMessage is a message longer than longerThan (nil for a failed
// decode) in every section, with every header field set and every
// record's data fields in use.
func staleMessage(longerThan *Message) *Message {
	var n [4]int
	if p := longerThan; p != nil {
		n = [4]int{len(p.Question), len(p.Answer), len(p.Authority), len(p.Additional)}
	}
	m := &Message{ID: 0xffff, QR: true, OpCode: 15, AA: true, TC: true, RD: true, RA: true, RCode: 15}
	for i := 0; i <= n[0]; i++ {
		m.Question = append(m.Question, Question{Name: "stale.example", Type: TypeTXT, Class: 3})
	}
	rr := RR{Name: "stale.example", Type: TypeTXT, Class: 3, TTL: 7,
		Addr: netip.MustParseAddr("2001:db8::5"), Target: "stale.target", SOA: &SOAData{MName: "stale.m"},
		Txt: []string{strings.Repeat("s", 9)}, Data: []byte("stale")}
	for i, sec := range []*[]RR{&m.Answer, &m.Authority, &m.Additional} {
		for j := 0; j <= n[i+1]; j++ {
			*sec = append(*sec, rr)
		}
	}
	return m
}
