package dnswire

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestNameLabels(t *testing.T) {
	n := Name("a.b.example.org")
	labels := n.Labels()
	want := []string{"a", "b", "example", "org"}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
	if n.CountLabels() != 4 {
		t.Fatalf("CountLabels = %d", n.CountLabels())
	}
	if Root.CountLabels() != 0 || len(Root.Labels()) != 0 {
		t.Fatal("root must have zero labels")
	}
}

func TestNameParentChild(t *testing.T) {
	n := Name("www.example.org")
	if n.Parent() != "example.org" {
		t.Fatalf("Parent = %q", n.Parent())
	}
	if Name("org").Parent() != Root {
		t.Fatal("parent of TLD must be root")
	}
	if Root.Parent() != Root {
		t.Fatal("parent of root must be root")
	}
	if Root.Child("org") != "org" {
		t.Fatalf("root child = %q", Root.Child("org"))
	}
	if Name("org").Child("example") != "example.org" {
		t.Fatal("child composition broken")
	}
}

func TestNameSubdomain(t *testing.T) {
	cases := []struct {
		n, zone Name
		want    bool
	}{
		{"a.example.org", "example.org", true},
		{"example.org", "example.org", true},
		{"EXAMPLE.ORG", "example.org", true},
		{"badexample.org", "example.org", false},
		{"example.org", "a.example.org", false},
		{"anything.at.all", Root, true},
		{"", Root, true},
	}
	for _, c := range cases {
		if got := c.n.IsSubdomainOf(c.zone); got != c.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %v, want %v", c.n, c.zone, got, c.want)
		}
	}
}

func TestNameString(t *testing.T) {
	if Root.String() != "." {
		t.Fatalf("root String = %q", Root.String())
	}
	if Name("example.org").String() != "example.org." {
		t.Fatalf("String = %q", Name("example.org").String())
	}
}

func TestReverseNameV4(t *testing.T) {
	got := ReverseName(netip.MustParseAddr("198.51.100.7"))
	if got != "7.100.51.198.in-addr.arpa" {
		t.Fatalf("ReverseName = %q", got)
	}
}

func TestReverseNameV6(t *testing.T) {
	got := ReverseName(netip.MustParseAddr("2a00::1"))
	want := "1.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.a.2.ip6.arpa"
	if string(got) != want {
		t.Fatalf("ReverseName = %q, want %q", got, want)
	}
	// Must be a valid, packable DNS name.
	if _, err := NewQuery(1, got, TypePTR).Pack(); err != nil {
		t.Fatal(err)
	}
}

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "ts.src.dst.asn.kw.dns-lab.org", TypeA)
	got, err := Unpack(mustPack(t, q))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.QR || !got.RD {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Q().Name != "ts.src.dst.asn.kw.dns-lab.org" || got.Q().Type != TypeA || got.Q().Class != ClassIN {
		t.Fatalf("question mismatch: %+v", got.Q())
	}
}

func TestResponseRoundTripAllTypes(t *testing.T) {
	q := NewQuery(7, "host.example.org", TypeANY)
	r := q.Reply()
	r.AA = true
	r.RCode = RCodeNoError
	r.Answer = []RR{
		{Name: "host.example.org", Type: TypeA, Class: ClassIN, TTL: 300,
			Addr: netip.MustParseAddr("203.0.113.9")},
		{Name: "host.example.org", Type: TypeAAAA, Class: ClassIN, TTL: 300,
			Addr: netip.MustParseAddr("2001:db8::9")},
		{Name: "alias.example.org", Type: TypeCNAME, Class: ClassIN, TTL: 60,
			Target: "host.example.org"},
		{Name: "host.example.org", Type: TypeTXT, Class: ClassIN, TTL: 60,
			Txt: []string{"v=test", "second string"}},
	}
	r.Authority = []RR{
		{Name: "example.org", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns1.example.org"},
		{Name: "example.org", Type: TypeSOA, Class: ClassIN, TTL: 3600, SOA: &SOAData{
			MName: "ns1.example.org", RName: "hostmaster.example.org",
			Serial: 2019110601, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
		}},
	}
	r.Additional = []RR{
		{Name: "ns1.example.org", Type: TypeA, Class: ClassIN, TTL: 86400,
			Addr: netip.MustParseAddr("203.0.113.1")},
	}
	got, err := Unpack(mustPack(t, r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.QR || !got.AA || got.RCode != RCodeNoError {
		t.Fatalf("flags: %+v", got)
	}
	if len(got.Answer) != 4 || len(got.Authority) != 2 || len(got.Additional) != 1 {
		t.Fatalf("section counts: %d/%d/%d", len(got.Answer), len(got.Authority), len(got.Additional))
	}
	if got.Answer[0].Addr != netip.MustParseAddr("203.0.113.9") {
		t.Fatalf("A rdata = %v", got.Answer[0].Addr)
	}
	if got.Answer[1].Addr != netip.MustParseAddr("2001:db8::9") {
		t.Fatalf("AAAA rdata = %v", got.Answer[1].Addr)
	}
	if got.Answer[2].Target != "host.example.org" {
		t.Fatalf("CNAME target = %v", got.Answer[2].Target)
	}
	if len(got.Answer[3].Txt) != 2 || got.Answer[3].Txt[1] != "second string" {
		t.Fatalf("TXT = %v", got.Answer[3].Txt)
	}
	soa := got.Authority[1].SOA
	if soa == nil || soa.Serial != 2019110601 || soa.RName != "hostmaster.example.org" {
		t.Fatalf("SOA = %+v", soa)
	}
}

func TestCompressionShrinksAndDecodes(t *testing.T) {
	r := &Message{ID: 1, QR: true}
	r.Question = []Question{{Name: "very.long.label.chain.dns-lab.org", Type: TypeA, Class: ClassIN}}
	for i := 0; i < 10; i++ {
		r.Authority = append(r.Authority, RR{
			Name: "dns-lab.org", Type: TypeNS, Class: ClassIN, TTL: 60,
			Target: Name("ns" + string(rune('0'+i)) + ".dns-lab.org"),
		})
	}
	packed := mustPack(t, r)

	// Re-encode without compression support by packing each name fresh:
	// estimate uncompressed size.
	uncompressed := 12
	addName := func(n Name) {
		uncompressed += len(string(n)) + 2
	}
	addName(r.Question[0].Name)
	uncompressed += 4
	for _, rr := range r.Authority {
		addName(rr.Name)
		uncompressed += 10
		addName(rr.Target)
	}
	if len(packed) >= uncompressed {
		t.Fatalf("compression ineffective: %d >= %d", len(packed), uncompressed)
	}
	got, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Authority) != 10 || got.Authority[9].Target != "ns9.dns-lab.org" {
		t.Fatalf("decoded authority: %+v", got.Authority)
	}
}

func TestCompressionIsCaseInsensitiveButPreservesQuestionCase(t *testing.T) {
	m := &Message{ID: 9}
	m.Question = []Question{{Name: "WWW.Example.ORG", Type: TypeA, Class: ClassIN}}
	m.Answer = []RR{{Name: "www.example.org", Type: TypeA, Class: ClassIN, TTL: 1,
		Addr: netip.MustParseAddr("192.0.2.1")}}
	got, err := Unpack(mustPack(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Q().Name != "WWW.Example.ORG" {
		t.Fatalf("question case not preserved: %q", got.Q().Name)
	}
	if !got.Answer[0].Name.Equal("www.example.org") {
		t.Fatalf("answer name: %q", got.Answer[0].Name)
	}
}

func TestRootNameInQuestion(t *testing.T) {
	m := NewQuery(3, Root, TypeNS)
	got, err := Unpack(mustPack(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Q().Name != Root {
		t.Fatalf("root question = %q", got.Q().Name)
	}
}

func TestLabelTooLong(t *testing.T) {
	long := Name(strings.Repeat("a", 64) + ".org")
	if _, err := NewQuery(1, long, TypeA).Pack(); err == nil {
		t.Fatal("64-byte label packed without error")
	}
}

func TestNameTooLong(t *testing.T) {
	var labels []string
	for i := 0; i < 130; i++ {
		labels = append(labels, "aa") // 130*3 = 390 > 255
	}
	long := NewName(labels...)
	if _, err := NewQuery(1, long, TypeA).Pack(); err == nil {
		t.Fatal("overlong name packed without error")
	}
}

func TestUnpackTruncatedInputs(t *testing.T) {
	full := mustPack(t, NewQuery(1, "a.example.org", TypeA))
	for cut := 0; cut < len(full); cut++ {
		if _, err := Unpack(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnpackPointerLoopRejected(t *testing.T) {
	// Header + a name that is a pointer to itself.
	msg := make([]byte, 12, 16)
	msg[5] = 1 // QDCOUNT=1
	msg = append(msg, 0xc0, 12)
	msg = append(msg, 0, 1, 0, 1)
	if _, err := Unpack(msg); err == nil {
		t.Fatal("self-referential compression pointer accepted")
	}
}

func TestUnpackForwardPointerRejected(t *testing.T) {
	msg := make([]byte, 12, 20)
	msg[5] = 1
	msg = append(msg, 0xc0, 20) // points forward
	msg = append(msg, 0, 1, 0, 1)
	if _, err := Unpack(msg); err == nil {
		t.Fatal("forward compression pointer accepted")
	}
}

func TestTruncateForUDP(t *testing.T) {
	m := NewQuery(5, "big.example.org", TypeTXT).Reply()
	m.AA, m.RA = true, true
	var txt []string
	for i := 0; i < 10; i++ {
		txt = append(txt, strings.Repeat("x", 200))
	}
	m.Answer = []RR{{Name: "big.example.org", Type: TypeTXT, Class: ClassIN, TTL: 1, Txt: txt}}
	m.SetEDNS(DefaultEDNSSize)
	packed, err := m.PackUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) > 512 {
		t.Fatalf("truncated response still %d bytes", len(packed))
	}
	tr, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.TC {
		t.Fatal("TC bit not set")
	}
	if len(tr.Answer) != 0 || len(tr.Additional) != 0 {
		t.Fatal("truncated response should drop answers and the OPT record")
	}
	if tr.ID != 5 || !tr.QR || !tr.AA || !tr.RA || !tr.RD || tr.Q() != m.Q() {
		t.Fatalf("truncated header or question changed: %+v", tr)
	}
	// The cut is what packing the header and question alone gives.
	alone := &Message{ID: m.ID, QR: m.QR, AA: m.AA, TC: true, RD: m.RD, RA: m.RA, Question: m.Question}
	if want := mustPack(t, alone); !bytes.Equal(packed, want) {
		t.Fatalf("cut = %x, want %x", packed, want)
	}

	small := NewQuery(5, "small.example.org", TypeA).Reply()
	packed, err = small.PackUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(packed, mustPack(t, small)) {
		t.Fatal("small response changed by PackUDP")
	}
}

func TestReplyEchoesQuestion(t *testing.T) {
	q := NewQuery(77, "q.example.org", TypeAAAA)
	r := q.Reply()
	if r.ID != 77 || !r.QR || r.Q() != q.Q() || !r.RD {
		t.Fatalf("reply = %+v", r)
	}
}

// quickName builds a valid Name from arbitrary fuzz input.
func quickName(parts []uint8) Name {
	labels := make([]string, 0, len(parts)%4+1)
	for i := 0; i < len(parts)%4+1; i++ {
		n := 1
		if i < len(parts) {
			n = int(parts[i])%20 + 1
		}
		labels = append(labels, strings.Repeat(string(rune('a'+i%26)), n))
	}
	labels = append(labels, "org")
	return NewName(labels...)
}

func TestQuickQueryRoundTrip(t *testing.T) {
	f := func(id uint16, parts []uint8, typ uint8) bool {
		name := quickName(parts)
		qt := Type(typ%3 + 1) // A, NS, CNAME
		m := NewQuery(id, name, qt)
		packed, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(packed)
		if err != nil {
			return false
		}
		return got.ID == id && got.Q().Name.Equal(name) && got.Q().Type == qt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnpackNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unpack panicked on %v: %v", data, r)
			}
		}()
		_, _ = Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPackUnpackStable(t *testing.T) {
	// Property: pack→unpack→pack is a fixed point (stability of encoder).
	f := func(id uint16, parts []uint8) bool {
		m := NewQuery(id, quickName(parts), TypeA)
		r := m.Reply()
		r.AA = true
		r.RCode = RCodeNXDomain
		r.Authority = []RR{{
			Name: "org", Type: TypeSOA, Class: ClassIN, TTL: 900,
			SOA: &SOAData{MName: "a0.org.afilias-nst.info", RName: "hostmaster.org",
				Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5},
		}}
		p1, err := r.Pack()
		if err != nil {
			return false
		}
		u, err := Unpack(p1)
		if err != nil {
			return false
		}
		p2, err := u.Pack()
		if err != nil {
			return false
		}
		return bytes.Equal(p1, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPackQuery(b *testing.B) {
	m := NewQuery(1, "1573066000.192-0-2-55.198-51-100-7.64501.x1.dns-lab.org", TypeA)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackQuery(b *testing.B) {
	m := NewQuery(1, "1573066000.192-0-2-55.198-51-100-7.64501.x1.dns-lab.org", TypeA)
	packed, _ := m.Pack()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(packed); err != nil {
			b.Fatal(err)
		}
	}
}
