package world

import (
	"net/netip"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/packet"
)

// TestTxnIDConservation drives invariant (b) by hand: a response is
// checked when its (client, port, server, question) was asked, and it
// must carry one of the IDs recorded for that question — the first one,
// or any later one, including an ID another question used — whatever
// the case of the name. An unsolicited response is not checked, and
// that includes one in an IPv6 packet between the IPv4-mapped forms of
// an IPv4 transaction's addresses, which share its addresses' bytes.
func TestTxnIDConservation(t *testing.T) {
	client, server := netip.MustParseAddr("192.0.2.7"), netip.MustParseAddr("198.51.100.53")
	datagram := func(id uint16, name string, clientPort uint16, response bool) *packet.Packet {
		t.Helper()
		return datagramBetween(t, client, server, id, name, clientPort, response)
	}
	v := NewInvariants()
	for _, q := range []struct {
		id   uint16
		name string
	}{
		{1, "a.example."}, {2, "a.example."}, {2, "A.Example."}, {3, "a.example."},
		{9, "b.example."},
	} {
		v.OnDelivery(0, datagram(q.id, q.name, 4000, false), nil, false)
	}
	for _, r := range []struct {
		id         uint16
		name       string
		port       uint16
		violations uint64
	}{
		{1, "a.example.", 4000, 0},
		{3, "A.EXAMPLE.", 4000, 0},
		{2, "a.example.", 4000, 0},
		{9, "b.example.", 4000, 0},
		{9, "a.example.", 4000, 1}, // b.example.'s ID
		{4, "a.example.", 4000, 2},
		{2, "b.example.", 4000, 3},
		{7, "a.example.", 4001, 3}, // unsolicited: another port
		{7, "c.example.", 4000, 3}, // unsolicited: another question
	} {
		v.OnDelivery(0, datagram(r.id, r.name, r.port, true), nil, false)
		if got := v.Report().ViolationCount; got != r.violations {
			t.Fatalf("response %d for %s to port %d: %d violations, want %d (%v)",
				r.id, r.name, r.port, got, r.violations, v.Report().Violations)
		}
	}
	mapped := func(a netip.Addr) netip.Addr { return netip.AddrFrom16(a.As16()) }
	v.OnDelivery(0, datagramBetween(t, mapped(client), mapped(server), 4, "a.example.", 4000, true), nil, false)
	if got := v.Report().ViolationCount; got != 3 {
		t.Fatalf("a response between the IPv4-mapped addresses was checked against the IPv4 transaction: %d violations, want 3", got)
	}
	if rep := v.Report(); rep.ResponsesChecked != 7 || rep.DeliveriesChecked != 15 {
		t.Fatalf("checked %d responses of %d deliveries, want 7 of 15", rep.ResponsesChecked, rep.DeliveriesChecked)
	}
}

// datagramBetween is a decoded DNS query for name from client's
// clientPort to server's port 53 under id, or, when response is set,
// the same message marked a response and sent back the other way. The
// IP version is the addresses'.
func datagramBetween(t *testing.T, client, server netip.Addr, id uint16, name string, clientPort uint16, response bool) *packet.Packet {
	t.Helper()
	msg, err := dnswire.NewQuery(id, dnswire.Name(name), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	src, dst, sport, dport := client, server, clientPort, uint16(53)
	if response {
		msg[2] |= 0x80
		src, dst, sport, dport = server, client, 53, clientPort
	}
	raw, err := packet.BuildUDP(src, dst, sport, dport, 64, msg)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := packet.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}
