package netsim

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/routing"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// world builds a small Internet: AS 100 (scanner side, no OSAV), AS 200
// (target side), AS 300 (auth side).
type world struct {
	net             *Network
	as1, as2, as3   *routing.AS
	scanner, target *Host
	auth            *Host
}

func newWorld(t *testing.T, mut func(as1, as2, as3 *routing.AS)) *world {
	t.Helper()
	reg := routing.NewRegistry()
	as1 := &routing.AS{ASN: 100, Prefixes: []netip.Prefix{prefix("192.0.2.0/24"), prefix("2001:db8:100::/48")}}
	as2 := &routing.AS{ASN: 200, Prefixes: []netip.Prefix{prefix("198.51.100.0/24"), prefix("203.0.113.0/24"), prefix("2001:db8:200::/48")}}
	as3 := &routing.AS{ASN: 300, Prefixes: []netip.Prefix{prefix("192.0.3.0/24"), prefix("2001:db8:300::/48")}}
	// Test worlds use documentation space as if public: disable the
	// bogon classification conflicts by not enabling FilterBogons.
	if mut != nil {
		mut(as1, as2, as3)
	}
	for _, as := range []*routing.AS{as1, as2, as3} {
		if err := reg.Add(as); err != nil {
			t.Fatal(err)
		}
	}
	n := New(reg, Config{Seed: 1})
	scanner, err := n.Attach("scanner", as1, addr("192.0.2.10"), addr("2001:db8:100::10"))
	if err != nil {
		t.Fatal(err)
	}
	target, err := n.Attach("target", as2, addr("198.51.100.53"), addr("2001:db8:200::53"))
	if err != nil {
		t.Fatal(err)
	}
	auth, err := n.Attach("auth", as3, addr("192.0.3.53"), addr("2001:db8:300::53"))
	if err != nil {
		t.Fatal(err)
	}
	return &world{net: n, as1: as1, as2: as2, as3: as3, scanner: scanner, target: target, auth: auth}
}

// lastUDP binds port 53 on h and records the most recent datagram.
type lastUDP struct {
	count   int
	src     netip.Addr
	srcPort uint16
	payload []byte
}

func listen53(t *testing.T, h *Host) *lastUDP {
	t.Helper()
	l := &lastUDP{}
	err := h.BindUDP(53, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		l.count++
		l.src, l.srcPort = src, sp
		l.payload = append([]byte(nil), payload...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestUDPDelivery(t *testing.T) {
	w := newWorld(t, nil)
	l := listen53(t, w.target)
	if err := w.scanner.SendUDP(addr("192.0.2.10"), 40000, addr("198.51.100.53"), 53, []byte("query")); err != nil {
		t.Fatal(err)
	}
	w.net.Run()
	if l.count != 1 {
		t.Fatalf("delivered %d datagrams, want 1 (drops: %v)", l.count, w.net.Drops())
	}
	if string(l.payload) != "query" || l.src != addr("192.0.2.10") || l.srcPort != 40000 {
		t.Fatalf("datagram = %+v", l)
	}
	if w.net.Delivered() != 1 {
		t.Fatalf("Delivered = %d", w.net.Delivered())
	}
}

func TestUDPv6Delivery(t *testing.T) {
	w := newWorld(t, nil)
	l := listen53(t, w.target)
	if err := w.scanner.SendUDP(addr("2001:db8:100::10"), 40000, addr("2001:db8:200::53"), 53, []byte("v6")); err != nil {
		t.Fatal(err)
	}
	w.net.Run()
	if l.count != 1 {
		t.Fatalf("v6 datagram not delivered (drops: %v)", w.net.Drops())
	}
}

func spoofedUDP(t *testing.T, src, dst netip.Addr, payload string) []byte {
	t.Helper()
	raw, err := packet.BuildUDP(src, dst, 31337, 53, 64, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestNoDSAVAllowsInternalSpoof(t *testing.T) {
	w := newWorld(t, nil) // AS 200 has no DSAV
	l := listen53(t, w.target)
	// Spoof a source inside the target AS but a different prefix.
	w.scanner.SendRaw(spoofedUDP(t, addr("203.0.113.7"), addr("198.51.100.53"), "spoofed"))
	w.net.Run()
	if l.count != 1 {
		t.Fatalf("spoofed-internal packet not delivered without DSAV (drops: %v)", w.net.Drops())
	}
	if l.src != addr("203.0.113.7") {
		t.Fatalf("src = %v", l.src)
	}
}

func TestDSAVBlocksInternalSpoof(t *testing.T) {
	w := newWorld(t, func(_, as2, _ *routing.AS) { as2.DSAV = true })
	l := listen53(t, w.target)
	w.scanner.SendRaw(spoofedUDP(t, addr("203.0.113.7"), addr("198.51.100.53"), "spoofed"))
	w.net.Run()
	if l.count != 0 {
		t.Fatal("DSAV AS accepted an internal-source packet from outside")
	}
	if w.net.Drops()[DropDSAV] != 1 {
		t.Fatalf("drops = %v, want one dsav", w.net.Drops())
	}
}

func TestDSAVAllowsExternalSources(t *testing.T) {
	w := newWorld(t, func(_, as2, _ *routing.AS) { as2.DSAV = true })
	l := listen53(t, w.target)
	if err := w.scanner.SendUDP(addr("192.0.2.10"), 1234, addr("198.51.100.53"), 53, []byte("legit")); err != nil {
		t.Fatal(err)
	}
	w.net.Run()
	if l.count != 1 {
		t.Fatal("DSAV must not block legitimately external sources")
	}
}

func TestDSAVDoesNotFilterIntraASTraffic(t *testing.T) {
	w := newWorld(t, func(_, as2, _ *routing.AS) { as2.DSAV = true })
	l := listen53(t, w.target)
	inside, err := w.net.Attach("inside", w.as2, addr("203.0.113.9"))
	if err != nil {
		t.Fatal(err)
	}
	if err := inside.SendUDP(addr("203.0.113.9"), 555, addr("198.51.100.53"), 53, []byte("internal")); err != nil {
		t.Fatal(err)
	}
	w.net.Run()
	if l.count != 1 {
		t.Fatalf("intra-AS traffic filtered by DSAV (drops: %v)", w.net.Drops())
	}
}

func TestOSAVBlocksEgressSpoof(t *testing.T) {
	w := newWorld(t, func(as1, _, _ *routing.AS) { as1.OSAV = true })
	listen53(t, w.target)
	w.scanner.SendRaw(spoofedUDP(t, addr("203.0.113.7"), addr("198.51.100.53"), "spoofed"))
	w.net.Run()
	if w.net.Drops()[DropOSAV] != 1 {
		t.Fatalf("drops = %v, want one osav", w.net.Drops())
	}
}

func TestBogonFilterBlocksPrivateSource(t *testing.T) {
	w := newWorld(t, func(_, as2, _ *routing.AS) { as2.FilterBogons = true })
	l := listen53(t, w.target)
	w.scanner.SendRaw(spoofedUDP(t, addr("192.168.0.10"), addr("198.51.100.53"), "private"))
	w.net.Run()
	if l.count != 0 || w.net.Drops()[DropBogonSource] != 1 {
		t.Fatalf("bogon source not filtered: count=%d drops=%v", l.count, w.net.Drops())
	}
}

func TestPrivateSourceDeliveredWithoutBogonFilter(t *testing.T) {
	w := newWorld(t, nil)
	l := listen53(t, w.target)
	w.scanner.SendRaw(spoofedUDP(t, addr("192.168.0.10"), addr("198.51.100.53"), "private"))
	w.net.Run()
	if l.count != 1 {
		t.Fatalf("private source dropped without a bogon filter (drops: %v)", w.net.Drops())
	}
}

func TestKernelDstAsSrcPolicy(t *testing.T) {
	// Modern Linux drops IPv4 dst-as-src but accepts IPv6 (Table 6).
	w := newWorld(t, nil)
	w.target.OS = oskernel.UbuntuModern
	l := listen53(t, w.target)
	w.scanner.SendRaw(spoofedUDP(t, addr("198.51.100.53"), addr("198.51.100.53"), "ds-v4"))
	w.net.Run()
	if l.count != 0 || w.net.Drops()[DropKernelSpoof] != 1 {
		t.Fatalf("Linux kernel accepted IPv4 dst-as-src: count=%d drops=%v", l.count, w.net.Drops())
	}
	w.scanner.SendRaw(spoofedUDP(t, addr("2001:db8:200::53"), addr("2001:db8:200::53"), "ds-v6"))
	w.net.Run()
	if l.count != 1 {
		t.Fatalf("Linux kernel rejected IPv6 dst-as-src (drops: %v)", w.net.Drops())
	}
}

func TestKernelDstAsSrcFreeBSDAcceptsV4(t *testing.T) {
	w := newWorld(t, nil)
	w.target.OS = oskernel.FreeBSD12
	l := listen53(t, w.target)
	w.scanner.SendRaw(spoofedUDP(t, addr("198.51.100.53"), addr("198.51.100.53"), "ds-v4"))
	w.net.Run()
	if l.count != 1 {
		t.Fatalf("FreeBSD should accept IPv4 dst-as-src (drops: %v)", w.net.Drops())
	}
}

func TestKernelLoopbackPolicies(t *testing.T) {
	// IPv6 loopback: accepted only by legacy Linux kernels.
	w := newWorld(t, nil)
	w.target.OS = oskernel.UbuntuLegacy
	l := listen53(t, w.target)
	w.scanner.SendRaw(spoofedUDP(t, addr("::1"), addr("2001:db8:200::53"), "lb-v6"))
	w.net.Run()
	if l.count != 1 {
		t.Fatalf("legacy Linux should accept IPv6 loopback source (drops: %v)", w.net.Drops())
	}
	w.target.OS = oskernel.UbuntuModern
	w.scanner.SendRaw(spoofedUDP(t, addr("::1"), addr("2001:db8:200::53"), "lb-v6"))
	w.net.Run()
	if l.count != 1 || w.net.Drops()[DropKernelSpoof] != 1 {
		t.Fatalf("modern Linux accepted IPv6 loopback source (count=%d drops=%v)", l.count, w.net.Drops())
	}
}

func TestNoRouteAndNoHostAndNoListener(t *testing.T) {
	w := newWorld(t, nil)
	// No route.
	w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("8.8.8.8"), 53, nil)
	// Routed but unbound address.
	w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("198.51.100.99"), 53, nil)
	// Host exists, port closed.
	w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("198.51.100.53"), 54, nil)
	w.net.Run()
	d := w.net.Drops()
	if d[DropNoRoute] != 1 || d[DropNoHost] != 1 || d[DropNoListener] != 1 {
		t.Fatalf("drops = %v", d)
	}
}

func TestInterceptorConsumesPacket(t *testing.T) {
	w := newWorld(t, nil)
	l := listen53(t, w.target)
	intercepted := 0
	w.net.SetInterceptor(200, func(now time.Duration, pkt *packet.Packet) bool {
		if pkt.UDP != nil && pkt.UDP.DstPort == 53 {
			intercepted++
			return true
		}
		return false
	})
	w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("198.51.100.53"), 53, []byte("x"))
	w.net.Run()
	if intercepted != 1 || l.count != 0 {
		t.Fatalf("intercepted=%d listener=%d", intercepted, l.count)
	}
}

func TestDropHookObservesDSAVDrop(t *testing.T) {
	w := newWorld(t, func(_, as2, _ *routing.AS) { as2.DSAV = true })
	listen53(t, w.target)
	var seen []DropReason
	w.net.SetDropHook(200, func(now time.Duration, r DropReason, pkt *packet.Packet, dstAS *routing.AS) {
		seen = append(seen, r)
		if r == DropDSAV && dstAS.ASN != 200 {
			t.Errorf("drop hook AS = %v", dstAS.ASN)
		}
	})
	w.scanner.SendRaw(spoofedUDP(t, addr("203.0.113.7"), addr("198.51.100.53"), "spoofed"))
	w.net.Run()
	if len(seen) != 1 || seen[0] != DropDSAV {
		t.Fatalf("hook saw %v", seen)
	}
}

func TestTTLDecrementedInTransit(t *testing.T) {
	w := newWorld(t, nil)
	var gotTTL uint8
	w.target.BindUDP(53, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {})
	w.net.SetInterceptor(200, func(now time.Duration, pkt *packet.Packet) bool {
		gotTTL = pkt.V4.TTL
		return true
	})
	raw, err := packet.BuildUDP(addr("192.0.2.10"), addr("198.51.100.53"), 1, 53, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.scanner.SendRaw(raw)
	w.net.Run()
	if gotTTL == 0 || gotTTL >= 64 {
		t.Fatalf("observed TTL = %d, want decremented below 64", gotTTL)
	}
	if 64-gotTTL < 5 || 64-gotTTL > 20 {
		t.Fatalf("hop count = %d, want 5..20", 64-gotTTL)
	}
}

// TestSendRawLeavesCallersBytes sends a caller's IPv4 and IPv6
// datagrams across a border, untouched and under a fault that corrupts
// and duplicates them. The network writes the TTL decrement and the bit
// flip on bytes of its own, so each caller's buffer is byte for byte
// what it sent, while the receiver sees the decremented TTL and the
// corrupted copies fail their decode.
func TestSendRawLeavesCallersBytes(t *testing.T) {
	hops := pathHops(100, 200)
	for _, c := range []struct {
		name  string
		fault TransitFault
	}{
		{"untouched", TransitFault{}},
		{"corrupted and duplicated", TransitFault{Corrupt: true, CorruptBit: 8*28 + 3, Duplicate: true, DupDelay: time.Millisecond}},
	} {
		w := newWorld(t, nil)
		l := listen53(t, w.target)
		var ttls []uint8
		w.net.SetDeliveryHook(func(_ time.Duration, pkt *packet.Packet, _ *routing.AS, _ bool) {
			ttls = append(ttls, pkt.TTL())
		})
		w.net.SetFaultHook(func(time.Duration, uint64, *packet.Packet, *routing.AS, *routing.AS) TransitFault {
			return c.fault
		})
		for _, dst := range []netip.Addr{addr("198.51.100.53"), addr("2001:db8:200::53")} {
			raw := spoofedUDP(t, w.scanner.Addr(dst.Is6()), dst, "kept by the caller")
			sent := bytes.Clone(raw)
			w.scanner.SendRaw(raw)
			w.net.Run()
			if !bytes.Equal(raw, sent) {
				t.Errorf("%s, to %v: the caller's bytes changed in transit:\n got  %x\n want %x", c.name, dst, raw, sent)
			}
		}
		if c.fault.Corrupt {
			if l.count != 0 || w.net.Drops()[DropMalformed] != 4 {
				t.Errorf("%s: %d delivered, drops %v; want the 4 copies malformed", c.name, l.count, w.net.Drops())
			}
			continue
		}
		if l.count != 2 || len(ttls) != 2 || ttls[0] != 64-hops || ttls[1] != 64-hops {
			t.Errorf("%s: %d delivered with TTLs %v, want 2 with %d", c.name, l.count, ttls, 64-hops)
		}
	}
}

func TestLoopbackDestinationNeverRouted(t *testing.T) {
	w := newWorld(t, nil)
	w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("127.0.0.1"), 53, nil)
	w.net.Run()
	if w.net.Drops()[DropNoRoute] != 1 {
		t.Fatalf("drops = %v", w.net.Drops())
	}
}

func TestTCPHandshakeAndData(t *testing.T) {
	w := newWorld(t, nil)
	w.target.OS = oskernel.FreeBSD12
	var serverGot, clientGot []byte
	var serverConn *TCPConn
	err := w.auth.BindTCP(53, func(c *TCPConn) {
		serverConn = c
		c.OnData = func(now time.Duration, data []byte) {
			serverGot = append([]byte(nil), data...)
			c.Send([]byte("response"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.target.DialTCP(addr("198.51.100.53"), 50001, addr("192.0.3.53"), 53, func(c *TCPConn) {
		c.OnData = func(now time.Duration, data []byte) {
			clientGot = append([]byte(nil), data...)
			c.Close()
		}
		c.Send([]byte("query over tcp"))
	})
	if err != nil {
		t.Fatal(err)
	}
	w.net.Run()
	if string(serverGot) != "query over tcp" {
		t.Fatalf("server got %q (drops %v)", serverGot, w.net.Drops())
	}
	if string(clientGot) != "response" {
		t.Fatalf("client got %q", clientGot)
	}
	if serverConn == nil || serverConn.SYN == nil || serverConn.SYN.TCP == nil {
		t.Fatal("server did not capture the SYN")
	}
	syn := serverConn.SYN
	if !syn.TCP.SYN || syn.TCP.ACK {
		t.Fatal("captured packet is not a pure SYN")
	}
	// FreeBSD fingerprint: window 65535, MSS 1460, WS 6, SACK, TS.
	if syn.TCP.Window != 65535 {
		t.Fatalf("SYN window = %d", syn.TCP.Window)
	}
	if mss, ok := syn.TCP.MSS(); !ok || mss != 1460 {
		t.Fatalf("SYN MSS = %d,%v", mss, ok)
	}
	if ws, ok := syn.TCP.WindowScale(); !ok || ws != 6 {
		t.Fatalf("SYN window scale = %d,%v", ws, ok)
	}
	if syn.V4 == nil || syn.V4.TTL >= 64 {
		t.Fatalf("SYN TTL not transit-decremented: %+v", syn.V4)
	}
}

func TestTCPScrubbedFingerprint(t *testing.T) {
	w := newWorld(t, nil)
	w.target.OS = oskernel.FreeBSD12
	w.target.ScrubFingerprint = true
	var syn *packet.Packet
	w.auth.BindTCP(53, func(c *TCPConn) { syn = c.SYN })
	w.target.DialTCP(addr("198.51.100.53"), 50002, addr("192.0.3.53"), 53, nil)
	w.net.Run()
	if syn == nil {
		t.Fatal("no SYN captured")
	}
	if _, ok := syn.TCP.WindowScale(); ok {
		t.Fatal("scrubbed SYN still carries window scale")
	}
	if syn.TCP.Window != 16384 {
		t.Fatalf("scrubbed window = %d", syn.TCP.Window)
	}
}

func TestTCPToClosedPortDropped(t *testing.T) {
	w := newWorld(t, nil)
	connected := false
	w.target.DialTCP(addr("198.51.100.53"), 50003, addr("192.0.3.53"), 99, func(*TCPConn) { connected = true })
	w.net.Run()
	if connected {
		t.Fatal("connected to a closed port")
	}
	if w.net.Drops()[DropNoListener] == 0 {
		t.Fatalf("drops = %v", w.net.Drops())
	}
}

func TestTCPClosePropagates(t *testing.T) {
	w := newWorld(t, nil)
	closed := false
	w.auth.BindTCP(53, func(c *TCPConn) {
		c.OnClose = func(time.Duration) { closed = true }
	})
	w.target.DialTCP(addr("198.51.100.53"), 50004, addr("192.0.3.53"), 53, func(c *TCPConn) {
		c.Close()
	})
	w.net.Run()
	if !closed {
		t.Fatal("server OnClose not invoked")
	}
}

func TestAttachRejectsDuplicateAddr(t *testing.T) {
	w := newWorld(t, nil)
	if _, err := w.net.Attach("dup", w.as2, addr("198.51.100.53")); err == nil {
		t.Fatal("duplicate address binding accepted")
	}
}

func TestBindErrors(t *testing.T) {
	w := newWorld(t, nil)
	if err := w.target.BindUDP(0, nil); err == nil {
		t.Fatal("bound UDP port 0")
	}
	if err := w.target.BindUDP(53, func(time.Duration, netip.Addr, uint16, netip.Addr, uint16, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := w.target.BindUDP(53, nil); err == nil {
		t.Fatal("double bind accepted")
	}
	w.target.UnbindUDP(53)
	if err := w.target.BindUDP(53, func(time.Duration, netip.Addr, uint16, netip.Addr, uint16, []byte) {}); err != nil {
		t.Fatal("rebind after unbind failed")
	}
}

func TestHostAddrHelpers(t *testing.T) {
	w := newWorld(t, nil)
	if w.target.Addr(false) != addr("198.51.100.53") || w.target.Addr(true) != addr("2001:db8:200::53") {
		t.Fatal("Addr family selection wrong")
	}
	if !w.target.HasAddr(addr("198.51.100.53")) || w.target.HasAddr(addr("1.2.3.4")) {
		t.Fatal("HasAddr wrong")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, time.Duration) {
		w := newWorld(t, nil)
		l := listen53(t, w.target)
		for i := 0; i < 50; i++ {
			w.scanner.SendUDP(addr("192.0.2.10"), uint16(1000+i), addr("198.51.100.53"), 53, []byte{byte(i)})
		}
		end := w.net.Run()
		return uint64(l.count), end
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", c1, t1, c2, t2)
	}
}

func BenchmarkUDPThroughSim(b *testing.B) {
	reg := routing.NewRegistry()
	as1 := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{prefix("192.0.2.0/24")}}
	as2 := &routing.AS{ASN: 2, Prefixes: []netip.Prefix{prefix("198.51.100.0/24")}}
	reg.Add(as1)
	reg.Add(as2)
	n := New(reg, Config{Seed: 9})
	src, _ := n.Attach("src", as1, addr("192.0.2.1"))
	dst, _ := n.Attach("dst", as2, addr("198.51.100.1"))
	dst.BindUDP(53, func(time.Duration, netip.Addr, uint16, netip.Addr, uint16, []byte) {})
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.SendUDP(addr("192.0.2.1"), 4000, addr("198.51.100.1"), 53, payload)
		n.Run()
	}
}

// TestDeliveredPacketIsItsBytesDecoded pins the one-decode-per-hop
// handoff: the Packet a receiver gets from inject, with its TTL or hop
// limit and Raw updated in transit, must equal a fresh decode of the
// bytes it arrived as — across a border and within an AS, for IPv4 and
// IPv6, UDP and TCP. A duplicated datagram's two copies decode into
// Packets of their own, and a corrupted one fails its decode at
// arrival.
func TestDeliveredPacketIsItsBytesDecoded(t *testing.T) {
	w := newWorld(t, nil)
	var delivered []*packet.Packet
	w.net.SetDeliveryHook(func(now time.Duration, pkt *packet.Packet, dstAS *routing.AS, crossed bool) {
		delivered = append(delivered, pkt)
	})
	w.net.SetFaultHook(func(now time.Duration, _ uint64, pkt *packet.Packet, srcAS, dstAS *routing.AS) TransitFault {
		switch string(pkt.Data) {
		case "dup":
			return TransitFault{Duplicate: true, DupDelay: time.Millisecond}
		case "corrupt":
			return TransitFault{Corrupt: true, CorruptBit: 8 * (len(pkt.Raw) - 1)} // a payload bit
		}
		return TransitFault{}
	})
	listen53(t, w.target)
	if err := w.auth.BindTCP(53, func(c *TCPConn) {
		c.OnData = func(now time.Duration, data []byte) { c.Send([]byte("response")) }
	}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ src, dst, payload string }{
		{"192.0.2.10", "198.51.100.53", "v4 across"},
		{"2001:db8:100::10", "2001:db8:200::53", "v6 across"},
		{"192.0.2.10", "198.51.100.53", "dup"},
		{"192.0.2.10", "198.51.100.53", "corrupt"},
	} {
		w.scanner.SendRaw(spoofedUDP(t, addr(d.src), addr(d.dst), d.payload))
	}
	w.target.SendRaw(spoofedUDP(t, addr("203.0.113.7"), addr("198.51.100.53"), "v4 within"))
	if _, err := w.target.DialTCP(addr("198.51.100.53"), 50001, addr("192.0.3.53"), 53, func(c *TCPConn) {
		c.OnData = func(now time.Duration, data []byte) { c.Close() }
		c.Send([]byte("query over tcp"))
	}); err != nil {
		t.Fatal(err)
	}
	w.net.Run()

	var dups []*packet.Packet
	tcp := 0
	for _, pkt := range delivered {
		fresh, err := packet.Decode(pkt.Raw)
		if err != nil {
			t.Fatalf("delivered datagram does not decode: %v", err)
		}
		if !reflect.DeepEqual(pkt.V4, fresh.V4) || !reflect.DeepEqual(pkt.V6, fresh.V6) ||
			!reflect.DeepEqual(pkt.UDP, fresh.UDP) || !reflect.DeepEqual(pkt.TCP, fresh.TCP) ||
			!bytes.Equal(pkt.Data, fresh.Data) {
			t.Errorf("delivered Packet differs from a decode of its bytes:\n got  %+v %+v %+v %+v\n want %+v %+v %+v %+v",
				pkt.V4, pkt.V6, pkt.UDP, pkt.TCP, fresh.V4, fresh.V6, fresh.UDP, fresh.TCP)
		}
		if pkt.TCP != nil {
			tcp++
		}
		if string(pkt.Data) == "dup" {
			dups = append(dups, pkt)
		}
	}
	if len(delivered) != 5+tcp || tcp < 4 { // UDP: v4 and v6 across, two dups, v4 within
		t.Fatalf("delivered %d packets, %d of them TCP (drops %v)", len(delivered), tcp, w.net.Drops())
	}
	if len(dups) != 2 || dups[0] == dups[1] {
		t.Fatalf("duplicate delivered as %d packets, shared=%v", len(dups), len(dups) == 2 && dups[0] == dups[1])
	}
	if got := w.net.Drops()[DropMalformed]; got != 1 {
		t.Fatalf("malformed drops = %d, want 1 (the corrupted datagram)", got)
	}
}
