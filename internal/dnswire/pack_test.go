package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// The reference packer is Pack and the UDP truncation as they stood
// before messages were packed once and names compared in ASCII only:
// compression keyed a map on strings.ToLower of every suffix, and a
// response too long for UDP was packed, cut to a header-and-question
// copy and packed again. It folds Unicode, so it mis-compresses names
// that differ only in octets Unicode folding equates; everywhere else
// Pack and PackUDP must match it byte for byte.

type refCompressor struct {
	offsets map[string]int
}

func (c *refCompressor) append(buf []byte, n Name) ([]byte, error) {
	if wire := len(string(n)) + 2; n != "" && wire > maxNameWire {
		return nil, errNameTooLong
	}
	rest := n
	for {
		if rest == "" {
			return append(buf, 0), nil
		}
		key := strings.ToLower(string(rest))
		if off, ok := c.offsets[key]; ok && off < 0x4000 {
			return append(buf, 0xc0|byte(off>>8), byte(off)), nil
		}
		if len(buf) < 0x4000 {
			c.offsets[key] = len(buf)
		}
		label, parent := string(rest), Root
		if i := strings.IndexByte(label, '.'); i >= 0 {
			label, parent = label[:i], rest[i+1:]
		}
		if len(label) > maxLabel {
			return nil, errLabelTooLong
		}
		if label == "" {
			return nil, fmt.Errorf("dnswire: empty label in %q", n)
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		rest = parent
	}
}

func refPack(m *Message) ([]byte, error) {
	buf := make([]byte, 12, 512)
	binary.BigEndian.PutUint16(buf[0:2], m.ID)
	var flags uint16
	if m.QR {
		flags |= 1 << 15
	}
	flags |= uint16(m.OpCode&0xf) << 11
	if m.AA {
		flags |= 1 << 10
	}
	if m.TC {
		flags |= 1 << 9
	}
	if m.RD {
		flags |= 1 << 8
	}
	if m.RA {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xf)
	binary.BigEndian.PutUint16(buf[2:4], flags)
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(m.Question)))
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(m.Answer)))
	binary.BigEndian.PutUint16(buf[8:10], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(buf[10:12], uint16(len(m.Additional)))

	c := &refCompressor{offsets: make(map[string]int)}
	var err error
	for _, q := range m.Question {
		if buf, err = c.append(buf, q.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for i := range sec {
			if buf, err = refPackRR(buf, c, &sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func refPackRR(buf []byte, c *refCompressor, rr *RR) ([]byte, error) {
	var err error
	if buf, err = c.append(buf, rr.Name); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	if rr.Class == ClassANY && rr.Data == nil && !rr.Addr.IsValid() && rr.Target == "" && rr.SOA == nil && rr.Txt == nil {
		return buf, nil
	}
	switch rr.Type {
	case TypeA:
		if !rr.Addr.Is4() {
			return nil, fmt.Errorf("dnswire: A record for %q without IPv4 address", rr.Name)
		}
		a := rr.Addr.As4()
		buf = append(buf, a[:]...)
	case TypeAAAA:
		if !rr.Addr.IsValid() || rr.Addr.Is4() {
			return nil, fmt.Errorf("dnswire: AAAA record for %q without IPv6 address", rr.Name)
		}
		a := rr.Addr.As16()
		buf = append(buf, a[:]...)
	case TypeNS, TypeCNAME, TypePTR:
		if buf, err = c.append(buf, rr.Target); err != nil {
			return nil, err
		}
	case TypeSOA:
		if rr.SOA == nil {
			return nil, errors.New("dnswire: SOA record without SOAData")
		}
		if buf, err = c.append(buf, rr.SOA.MName); err != nil {
			return nil, err
		}
		if buf, err = c.append(buf, rr.SOA.RName); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Serial)
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Refresh)
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Retry)
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Expire)
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Minimum)
	case TypeTXT:
		for _, s := range rr.Txt {
			if len(s) > 255 {
				return nil, errors.New("dnswire: TXT string exceeds 255 octets")
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	default:
		buf = append(buf, rr.Data...)
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xffff {
		return nil, errors.New("dnswire: rdata too long")
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// refPackUDP is the reference truncation followed by the second pack.
func refPackUDP(m *Message, limit int) ([]byte, error) {
	packed, err := refPack(m)
	if err != nil || len(packed) <= max(limit, maxUDPPayload) {
		return refPack(m)
	}
	t := &Message{
		ID: m.ID, QR: m.QR, OpCode: m.OpCode, AA: m.AA, TC: true,
		RD: m.RD, RA: m.RA, RCode: m.RCode,
	}
	t.Question = append(t.Question, m.Question...)
	return refPack(t)
}

// names lists every domain name a message carries, in wire order:
// questions, then each record's owner and the names in its data.
func names(m *Message) []Name {
	var out []Name
	for _, q := range m.Question {
		out = append(out, q.Name)
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			out = append(out, rr.Name)
			switch {
			case rr.SOA != nil:
				out = append(out, rr.SOA.MName, rr.SOA.RName)
			case rr.Type == TypeNS || rr.Type == TypeCNAME || rr.Type == TypePTR:
				out = append(out, rr.Target)
			}
		}
	}
	return out
}

// survives reports whether wire unpacks to m's questions and names:
// all of them, or, when wire was cut for UDP, the question section.
func survives(m *Message, wire []byte) error {
	got, err := Unpack(wire)
	if err != nil {
		return err
	}
	want, have := names(m), names(got)
	if len(got.Question) != len(m.Question) || len(have) > len(want) ||
		(len(have) < len(want) && (!got.TC || len(have) != len(m.Question))) {
		return fmt.Errorf("unpacked %d names, %d questions (TC %v); packed %d names, %d questions",
			len(have), len(got.Question), got.TC, len(want), len(m.Question))
	}
	for i := range have {
		if !have[i].Equal(want[i]) {
			return fmt.Errorf("name %d: packed %q, unpacked %q", i, want[i], have[i])
		}
	}
	return nil
}

// checkAgainstReference holds Pack and PackUDP(limit) to the reference
// packer: the same bytes, or, where the reference mis-compresses (its
// output does not unpack to the message's names), output that does.
func checkAgainstReference(t *testing.T, m *Message, limit int) {
	t.Helper()
	compare := func(what string, got []byte, err error, want []byte, wantErr error) {
		t.Helper()
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("%s packed what the reference rejects (%v): %x", what, wantErr, got)
			}
		case err == nil && bytes.Equal(got, want):
		default:
			if survives(m, want) == nil {
				t.Fatalf("%s differs from the reference, whose output is right:\n got  %x (err %v)\n want %x", what, got, err, want)
			}
			if err == nil {
				if e := survives(m, got); e != nil {
					t.Fatalf("%s output does not unpack to the message: %v\n got %x", what, e, got)
				}
			}
		}
	}
	got, err := m.Pack()
	want, wantErr := refPack(m)
	compare("Pack", got, err, want, wantErr)
	got, err = m.PackUDP(limit)
	want, wantErr = refPackUDP(m, limit)
	compare(fmt.Sprintf("PackUDP(%d)", limit), got, err, want, wantErr)
}

// referenceCorpus is a spread of messages for the differential test:
// the fuzz seeds, the authoritative servers' response shapes, 0x20
// mixed case, many names sharing suffixes, names past the 0x4000 reach
// of a pointer, and responses either side of the UDP limits.
func referenceCorpus(t *testing.T) []*Message {
	var out []*Message
	for _, b := range fuzzSeeds(t) {
		m, err := Unpack(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	soa := &SOAData{MName: "www.dns-lab.org", RName: "research.dns-lab.org",
		Serial: 2019110601, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 60}

	probe := NewQuery(0x5a5a, "1573066000.v4-192-0-2-55.v4-198-51-100-7.64501.x1.dns-lab.org", TypeA)
	out = append(out, probe)
	nx := probe.Reply()
	nx.AA, nx.RCode = true, RCodeNXDomain
	nx.Authority = []RR{{Name: "dns-lab.org", Type: TypeSOA, Class: ClassIN, TTL: 300, SOA: soa}}
	out = append(out, nx)

	mixed := NewQuery(9, "1573066000.V4-192-0-2-55.v4-198-51-100-7.64501.X1.DnS-LaB.oRg", TypeA)
	mixed.SetEDNS(DefaultEDNSSize)
	out = append(out, mixed)
	mref := mixed.Reply()
	mref.Authority = []RR{{Name: "DNS-lab.ORG", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns1.dns-lab.org"}}
	mref.Additional = []RR{
		{Name: "NS1.dns-lab.org", Type: TypeA, Class: ClassIN, TTL: 86400, Addr: netip.MustParseAddr("223.255.0.3")},
		{Name: "ns1.DNS-LAB.org", Type: TypeAAAA, Class: ClassIN, TTL: 86400, Addr: netip.MustParseAddr("2a01:0:1::3")},
	}
	mref.SetEDNS(DefaultEDNSSize)
	out = append(out, mref)

	ref := NewQuery(3, "www.example.org", TypeA).Reply()
	for i := 0; i < 13; i++ {
		ns := Name(fmt.Sprintf("%c.gtld-servers.net", 'a'+i))
		ref.Authority = append(ref.Authority, RR{Name: "org", Type: TypeNS, Class: ClassIN, TTL: 172800, Target: ns})
		ref.Additional = append(ref.Additional,
			RR{Name: ns, Type: TypeA, Class: ClassIN, TTL: 172800, Addr: netip.AddrFrom4([4]byte{192, 5, 6, byte(30 + i)})},
			RR{Name: ns, Type: TypeAAAA, Class: ClassIN, TTL: 172800, Addr: netip.MustParseAddr(fmt.Sprintf("2001:503:a83e::2:%x", 30+i))})
	}
	out = append(out, ref)

	// A trailing dot marks the absolute name and packs as if absent.
	ptr := NewQuery(6, "22.64.0.1.in-addr.arpa", TypePTR).Reply()
	ptr.Answer = []RR{{Name: "22.64.0.1.in-addr.arpa", Type: TypePTR, Class: ClassIN, TTL: 3600, Target: "r0.as1000.example.net."}}
	ptr.Authority = []RR{{Name: "as1000.example.net.", Type: TypeNS, Class: ClassIN, TTL: 1, Target: "example.net"}}
	out = append(out, ptr)

	wild := NewQuery(4, "a.b.c.dns-lab.org", TypeTXT).Reply()
	wild.Answer = []RR{{Name: "a.b.c.dns-lab.org", Type: TypeTXT, Class: ClassIN, TTL: 300, Txt: []string{"dsav-experiment"}}}
	wild.Authority = []RR{{Name: "c.dns-lab.org", Type: TypeCNAME, Class: ClassIN, TTL: 1, Target: "B.C.dns-lab.org"}}
	out = append(out, wild)

	// Past a pointer's reach: 70 TXT records of 250 octets put the
	// later owner names beyond offset 0x4000.
	far := NewQuery(5, "far.example.org", TypeTXT).Reply()
	for i := 0; i < 70; i++ {
		far.Answer = append(far.Answer, RR{Name: Name(fmt.Sprintf("r%d.far.example.org", i%7)),
			Type: TypeTXT, Class: ClassIN, TTL: 1, Txt: []string{strings.Repeat("t", 250)}})
	}
	far.Additional = []RR{{Name: "x.r3.far.example.org", Type: TypeCNAME, Class: ClassIN, TTL: 1, Target: "y.r3.far.example.org"}}
	out = append(out, far)

	for _, n := range []int{1, 2, 3, 5} {
		big := NewQuery(uint16(n), "big.example.org", TypeTXT).Reply()
		for i := 0; i < n; i++ {
			big.Answer = append(big.Answer, RR{Name: "big.example.org", Type: TypeTXT, Class: ClassIN, TTL: 1,
				Txt: []string{strings.Repeat("x", 200), strings.Repeat("y", 40)}})
		}
		big.SetEDNS(DefaultEDNSSize)
		out = append(out, big)
	}
	return out
}

func TestPackMatchesReference(t *testing.T) {
	for i, m := range referenceCorpus(t) {
		for _, limit := range []int{0, 512, 700, DefaultEDNSSize, 4096} {
			t.Run(fmt.Sprintf("%d/%d", i, limit), func(t *testing.T) {
				checkAgainstReference(t, m, limit)
			})
		}
	}
}

// TestPackKeepsNamesUnicodeFoldsTogether pins the packing bug of Unicode
// case folding: "\xfe.org" packed after "\xff.org" came back as the
// latter (both fold to U+FFFD), and "k.org" after the Kelvin-sign
// "\u212a.org" as the Kelvin sign.
func TestPackKeepsNamesUnicodeFoldsTogether(t *testing.T) {
	for _, pair := range [][2]Name{{"\xff.org", "\xfe.org"}, {"\u212a.org", "k.org"}, {"a.\xc0.org", "a.\xc1.org"}} {
		m := &Message{ID: 1, Question: []Question{
			{Name: pair[0], Type: TypeA, Class: ClassIN},
			{Name: pair[1], Type: TypeA, Class: ClassIN},
		}}
		got, err := Unpack(mustPack(t, m))
		if err != nil {
			t.Fatal(err)
		}
		if got.Question[0].Name != pair[0] || got.Question[1].Name != pair[1] {
			t.Errorf("packed %q, %q; unpacked %q, %q", pair[0], pair[1], got.Question[0].Name, got.Question[1].Name)
		}
	}
}

func TestNamesFoldASCIICaseOnly(t *testing.T) {
	for _, c := range []struct {
		a, b Name
		want bool
	}{
		{"WWW.Example.ORG", "www.example.org", true},
		{"x1.DNS-lab.org", "X1.dns-LAB.ORG", true},
		{"\xff.org", "\xfe.org", false},
		{"\u212a.org", "k.org", false}, // the Kelvin sign
		{"\u212a.org", "K.org", false},
		{"\xc3\x80.org", "\xc3\xa0.org", false}, // À and à: not ASCII
		{"@.org", "`.org", false},               // one below A, one below a
		{"[.org", "{.org", false},               // one above Z, one above z
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%q.Equal(%q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.a.Canonical() == c.b.Canonical(); got != c.want {
			t.Errorf("Canonical(%q) = %q, Canonical(%q) = %q: equal %v, want %v",
				c.a, c.a.Canonical(), c.b, c.b.Canonical(), got, c.want)
		}
		if got := Name("sub." + c.a).IsSubdomainOf(c.b); got != c.want {
			t.Errorf("%q.IsSubdomainOf(%q) = %v, want %v", "sub."+c.a, c.b, got, c.want)
		}
	}
	if got := Name("MiXeD.Dns-Lab.ORG\xff").Canonical(); got != "mixed.dns-lab.org\xff" {
		t.Errorf("Canonical = %q", got)
	}
}

// TestIsSubdomainOfDoesNotAllocate covers the mixed-case names 0x20
// encoding produces, which lower-casing copied.
func TestIsSubdomainOfDoesNotAllocate(t *testing.T) {
	n := Name("1573066000.V4-192-0-2-55.v4-198-51-100-7.64501.X1.DnS-LaB.oRg")
	var ok bool
	if a := testing.AllocsPerRun(100, func() { ok = n.IsSubdomainOf("dns-lab.org") }); a != 0 {
		t.Fatalf("IsSubdomainOf allocates %v times", a)
	}
	if !ok {
		t.Fatal("not a subdomain")
	}
}

// TestUnpackRejectsDottedLabel: a '.' inside a wire label has no
// presentation form here — "a.b" as one label reads back as two, and a
// trailing "x." as the absolute name x — so Unpack refuses it rather
// than return a name that packs to different labels.
func TestUnpackRejectsDottedLabel(t *testing.T) {
	for _, label := range []string{"a.b", "x.", "."} {
		msg := make([]byte, 12, 32)
		msg[5] = 1 // QDCOUNT=1
		msg = append(msg, byte(len(label)))
		msg = append(msg, label...)
		msg = append(msg, 0, 0, 1, 0, 1)
		if m, err := Unpack(msg); err == nil {
			t.Errorf("label %q unpacked as %q", label, m.Q().Name)
		}
	}
}

// TestPackCompressorDoesNotAllocate pins the packers at no allocation
// but the buffer: PackUDP's own buffer stays on the stack when its
// result does not escape, and packing into a warmed buffer allocates
// nothing.
func TestPackCompressorDoesNotAllocate(t *testing.T) {
	m := NewQuery(1, "1573066000.v4-192-0-2-55.v4-198-51-100-7.64501.x1.dns-lab.org", TypeA).Reply()
	m.Authority = []RR{{Name: "dns-lab.org", Type: TypeSOA, Class: ClassIN, TTL: 300, SOA: &SOAData{
		MName: "www.dns-lab.org", RName: "research.dns-lab.org"}}}
	if a := testing.AllocsPerRun(100, func() { _, _ = m.PackUDP(512) }); a != 0 {
		t.Fatalf("PackUDP allocates %v times, want 0", a)
	}
	buf, _ := m.Pack()
	if a := testing.AllocsPerRun(100, func() { buf, _ = m.PackBuffer(buf) }); a != 0 {
		t.Fatalf("PackBuffer into a warmed buffer allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { buf, _ = m.PackUDPBuffer(buf, 512) }); a != 0 {
		t.Fatalf("PackUDPBuffer into a warmed buffer allocates %v times, want 0", a)
	}
}

// FuzzPack holds Pack and PackUDP to the reference packer on every
// message Unpack accepts.
func FuzzPack(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s, uint16(512))
	}
	for _, pair := range [][2]Name{{"\xff.org", "\xfe.org"}, {"\u212a.org", "k.org"}} {
		m := &Message{ID: 1, Question: []Question{{Name: pair[0], Type: TypeA, Class: ClassIN}}}
		m.Answer = []RR{{Name: pair[1], Type: TypeCNAME, Class: ClassIN, TTL: 1, Target: pair[0]}}
		b, err := refPack(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint16(0))
	}
	big := NewQuery(2, "big.example.org", TypeTXT).Reply()
	big.Answer = []RR{{Name: "big.example.org", Type: TypeTXT, Class: ClassIN, TTL: 1,
		Txt: []string{strings.Repeat("x", 250), strings.Repeat("y", 250), strings.Repeat("z", 100)}}}
	b, err := big.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b, uint16(512))
	f.Add(b, uint16(1232))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		checkAgainstReference(t, m, int(limit))
		checkPackBuffer(t, m, int(limit))
	})
}

// checkPackBuffer holds the buffer packers to Pack and PackUDP: packed
// into a buffer of stale bytes longer than the message, m packs to the
// same bytes, the UDP cut included, or fails as they do.
func checkPackBuffer(t *testing.T, m *Message, limit int) {
	t.Helper()
	want, wantErr := m.Pack()
	stale := bytes.Repeat([]byte{0xa5}, len(want)+64)
	got, err := m.PackBuffer(stale)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("PackBuffer over stale bytes = %x (err %v), Pack = %x (err %v)", got, err, want, wantErr)
	}
	want, wantErr = m.PackUDP(limit)
	stale = bytes.Repeat([]byte{0x5a}, len(stale)+64)
	got, err = m.PackUDPBuffer(stale, limit)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("PackUDPBuffer(%d) over stale bytes = %x (err %v), PackUDP = %x (err %v)", limit, got, err, want, wantErr)
	}
}
