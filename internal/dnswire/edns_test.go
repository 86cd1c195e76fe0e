package dnswire

import (
	"net/netip"
	"strings"
	"testing"
)

func TestSetEDNSAndReadBack(t *testing.T) {
	m := NewQuery(1, "example.org", TypeA)
	if _, ok := m.EDNSSize(); ok {
		t.Fatal("fresh query claims EDNS")
	}
	m.SetEDNS(DefaultEDNSSize)
	size, ok := m.EDNSSize()
	if !ok || size != DefaultEDNSSize {
		t.Fatalf("EDNS size = %d, %v", size, ok)
	}
	// Replacing must not add a second OPT.
	m.SetEDNS(4096)
	if len(m.Additional) != 1 {
		t.Fatalf("additional = %d", len(m.Additional))
	}
	if size, _ := m.EDNSSize(); size != 4096 {
		t.Fatalf("size after replace = %d", size)
	}
}

func TestEDNSSurvivesWire(t *testing.T) {
	m := NewQuery(7, "example.org", TypeA)
	m.SetEDNS(1232)
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	size, ok := got.EDNSSize()
	if !ok || size != 1232 {
		t.Fatalf("wire round trip: size = %d, %v", size, ok)
	}
}

func TestEDNSSizeClampedUp(t *testing.T) {
	m := NewQuery(1, "example.org", TypeA)
	m.SetEDNS(100)
	if size, _ := m.EDNSSize(); size != 512 {
		t.Fatalf("sub-512 size not clamped: %d", size)
	}
}

func bigResponse(id uint16) *Message {
	m := NewQuery(id, "big.example.org", TypeTXT).Reply()
	var txt []string
	for i := 0; i < 4; i++ {
		txt = append(txt, strings.Repeat("x", 200))
	}
	m.Answer = []RR{{Name: "big.example.org", Type: TypeTXT, Class: ClassIN, TTL: 1, Txt: txt}}
	return m
}

// packedTC packs m with PackUDP and reports whether the result came
// back truncated.
func packedTC(t *testing.T, m *Message, limit int) bool {
	t.Helper()
	b, err := m.PackUDP(limit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	return got.TC
}

func TestTruncateForUDPSizeHonorsEDNS(t *testing.T) {
	// ~830 bytes: truncated at 512, intact at 1232.
	m := bigResponse(5)
	if packedTC(t, m, 1232) {
		t.Fatal("response truncated despite EDNS headroom")
	}
	if !packedTC(t, m, 512) {
		t.Fatal("response not truncated at the classic limit")
	}
}

func TestTruncateForUDPSizeFloor(t *testing.T) {
	m := bigResponse(6)
	// A limit below 512 behaves as 512 (RFC 6891 floor).
	if !packedTC(t, m, 100) {
		t.Fatal("floor behaviour wrong")
	}
	small := NewQuery(1, "a.example.org", TypeA).Reply()
	if packedTC(t, small, 100) {
		t.Fatal("small response truncated under floored limit")
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := NewUpdate(9, "corp.example")
	u.AddUpdateDeleteRRset("www.corp.example", TypeA)
	u.AddUpdateRecord(RR{Name: "www.corp.example", Type: TypeA, TTL: 60,
		Addr: mustAddr4(t)})
	packed, err := u.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if got.OpCode != OpUpdate {
		t.Fatalf("opcode = %v", got.OpCode)
	}
	zone, ok := got.UpdateZone()
	if !ok || zone != "corp.example" {
		t.Fatalf("zone = %q, %v", zone, ok)
	}
	adds, deletes := got.UpdateOps()
	if len(adds) != 1 || len(deletes) != 1 {
		t.Fatalf("ops = %d adds, %d deletes", len(adds), len(deletes))
	}
	if deletes[0].Class != ClassANY || deletes[0].Type != TypeA {
		t.Fatalf("delete op = %+v", deletes[0])
	}
	if adds[0].Class != ClassIN || !adds[0].Addr.Is4() {
		t.Fatalf("add op = %+v", adds[0])
	}
}

func TestUpdateZoneOnQueryIsFalse(t *testing.T) {
	q := NewQuery(1, "x.example", TypeA)
	if _, ok := q.UpdateZone(); ok {
		t.Fatal("plain query treated as update")
	}
}

func mustAddr4(t *testing.T) (a netip.Addr) {
	t.Helper()
	return netip.MustParseAddr("192.0.2.5")
}
