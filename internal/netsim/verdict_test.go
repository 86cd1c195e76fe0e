package netsim

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/routing"
)

// verdictCase is one datagram from the scanner host (AS 100) whose fate
// its addresses decide.
type verdictCase struct {
	name     string
	mut      func(as1, as2, as3 *routing.AS)
	src, dst string
	ttl      uint8 // the sender's TTL
	mbox     bool  // a middlebox in AS 200 that lets the datagram pass
	inside   bool  // sent from a host in AS 200, crossing no border
	want     DropReason
}

var verdictCases = []verdictCase{
	{name: "delivered", src: "192.0.2.10", dst: "198.51.100.53", want: DropNone},
	{name: "loopback destination", src: "192.0.2.10", dst: "127.0.0.1", want: DropNoRoute},
	{name: "osav", mut: func(as1, _, _ *routing.AS) { as1.OSAV = true }, src: "203.0.113.7", dst: "198.51.100.53", want: DropOSAV},
	{name: "no route", src: "192.0.2.10", dst: "8.8.8.8", want: DropNoRoute},
	{name: "ttl exceeded", src: "192.0.2.10", dst: "198.51.100.53", ttl: 3, want: DropTTLExceeded},
	{name: "bogon source", mut: func(_, as2, _ *routing.AS) { as2.FilterBogons = true }, src: "192.168.0.10", dst: "198.51.100.53", want: DropBogonSource},
	{name: "dsav", mut: func(_, as2, _ *routing.AS) { as2.DSAV = true }, src: "203.0.113.7", dst: "198.51.100.53", want: DropDSAV},
	{name: "dsav v6", mut: func(_, as2, _ *routing.AS) { as2.DSAV = true }, src: "2001:db8:200::7", dst: "2001:db8:200::53", want: DropDSAV},
	{name: "dsav before no host", mut: func(_, as2, _ *routing.AS) { as2.DSAV = true }, src: "203.0.113.7", dst: "198.51.100.99", want: DropDSAV},
	{name: "no host", src: "192.0.2.10", dst: "198.51.100.99", want: DropNoHost},
	{name: "no host behind a middlebox", src: "192.0.2.10", dst: "198.51.100.99", mbox: true, want: DropNoHost},
	{name: "no host within the AS", src: "203.0.113.7", dst: "198.51.100.99", inside: true, want: DropNoHost},
}

// skipped reports whether c's datagram is dropped without an arrival
// event on an untraced, unhooked network.
func (c verdictCase) skipped() bool { return c.want != DropNone && !c.mbox }

// send emits c's datagram from the scanner host, through SendUDP or as
// raw bytes through SendRaw.
func (c verdictCase) send(t *testing.T, w *world, raw bool) {
	t.Helper()
	ttl := c.ttl
	if ttl == 0 {
		ttl = 64
	}
	if raw {
		b, err := packet.BuildUDP(addr(c.src), addr(c.dst), 31337, 53, ttl, []byte("probe"))
		if err != nil {
			t.Fatal(err)
		}
		w.scanner.SendRaw(b)
		return
	}
	if c.ttl != 0 {
		w.scanner.OS = &oskernel.Profile{Fingerprint: oskernel.TCPFingerprint{InitialTTL: c.ttl}}
	}
	if err := w.scanner.SendUDP(addr(c.src), 31337, addr(c.dst), 53, []byte("probe")); err != nil {
		t.Fatal(err)
	}
}

// build makes c's network, with a listener on the target.
func (c verdictCase) build(t *testing.T) *world {
	w := newWorld(t, c.mut)
	listen53(t, w.target)
	if c.inside {
		h, err := w.net.Attach("inside", w.as2, addr("203.0.113.7"))
		if err != nil {
			t.Fatal(err)
		}
		w.scanner = h
	}
	if c.mbox {
		w.net.SetInterceptor(200, func(time.Duration, *packet.Packet) bool { return false })
	}
	return w
}

// TestVerdictClassesSkipAndCount sends each verdict class through
// SendUDP and SendRaw, on an untraced network and on a traced one (the
// byte path: a tracer records every packet, so nothing is skipped). All
// four count the same drop; the untraced ones schedule no arrival for a
// datagram its addresses doom.
func TestVerdictClassesSkipAndCount(t *testing.T) {
	for _, c := range verdictCases {
		for _, raw := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				w := c.build(t)
				var tr *Tracer
				if traced {
					tr = NewTracer(16)
					w.net.SetTracer(tr)
				}
				c.send(t, w, raw)
				pending := w.net.Q.Len()
				w.net.Run()
				label := c.name
				if raw {
					label += " (raw)"
				}
				if traced {
					label += " (traced)"
				}
				want := map[DropReason]uint64{}
				if c.want != DropNone {
					want[c.want] = 1
				}
				if got := w.net.Drops(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: drops %v, want %v", label, got, want)
				}
				if d := w.net.Delivered(); d != map[bool]uint64{true: 1}[c.want == DropNone] {
					t.Errorf("%s: delivered %d", label, d)
				}
				if wantPending := !traced && c.skipped(); (pending == 0) != wantPending && c.want != DropNoRoute && c.want != DropOSAV && c.want != DropTTLExceeded {
					t.Errorf("%s: %d events pending after the send", label, pending)
				}
				if traced && tr.Total() != 1 {
					t.Errorf("%s: tracer recorded %d events", label, tr.Total())
				}
			}
		}
	}
}

// TestDropHookSeesSkippableDropAtArrival: an AS with a drop hook still
// gets the drops its addresses decide (DSAV, no host) at arrival, with
// their packets, at the time a traced network records them; a hook on
// another AS does not stop the skip.
func TestDropHookSeesSkippableDropAtArrival(t *testing.T) {
	mut := func(_, as2, as3 *routing.AS) { as2.DSAV, as3.DSAV = true, true }
	type seen struct {
		at     time.Duration
		reason DropReason
		src    netip.Addr
	}
	send := func(w *world) {
		w.scanner.SendUDP(addr("203.0.113.7"), 1, addr("198.51.100.53"), 53, []byte("dsav"))
		w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("198.51.100.99"), 53, []byte("no host"))
	}
	want := map[string]seen{}
	{
		w := newWorld(t, mut)
		tr := NewTracer(16)
		w.net.SetTracer(tr)
		send(w)
		w.net.Run()
		for _, e := range tr.Events() {
			want[map[DropReason]string{DropDSAV: "dsav", DropNoHost: "no host"}[e.Drop]] = seen{e.Time, e.Drop, e.Src}
		}
	}
	w := newWorld(t, mut)
	got := map[string]seen{}
	w.net.SetDropHook(200, func(now time.Duration, r DropReason, pkt *packet.Packet, dstAS *routing.AS) {
		if pkt == nil || dstAS.ASN != 200 {
			t.Fatalf("hook got packet %v in AS %v", pkt, dstAS.ASN)
		}
		got[string(pkt.Data)] = seen{now, r, pkt.Src()}
	})
	w.net.SetDropHook(100, func(time.Duration, DropReason, *packet.Packet, *routing.AS) {
		t.Fatal("AS 100's hook saw a drop on the way into another AS")
	})
	send(w)
	// A doomed datagram into AS 300, which has no hook, is counted at
	// once.
	w.scanner.SendUDP(addr("192.0.3.7"), 1, addr("192.0.3.53"), 53, []byte("skipped"))
	if pending := w.net.Q.Len(); pending != 2 {
		t.Fatalf("%d events pending, want the two arrivals into AS 200", pending)
	}
	w.net.Run()
	if len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("hook saw %+v, traced network %+v", got, want)
	}
	if d := w.net.Drops(); d[DropDSAV] != 2 || d[DropNoHost] != 1 {
		t.Fatalf("drops %v", d)
	}
}

// doomedCase is one datagram its addresses doom, sent through SendUDP
// from the scanner host of a world where AS 200 and AS 300 enforce DSAV
// and AS 300 has a drop hook.
type doomedCase struct {
	name, src, dst string
	verdict        DropReason // judge's; a no-route drop takes no draw
}

var doomedCases = []doomedCase{
	{"dsav", "203.0.113.7", "198.51.100.53", DropDSAV},
	{"dsav v6", "2001:db8:200::7", "2001:db8:200::53", DropDSAV},
	{"no host v6", "2001:db8:100::10", "2001:db8:200::99", DropNoHost},
	{"no route", "192.0.2.10", "8.8.8.8", DropNoRoute},
	{"dsav into a hooked AS", "192.0.3.7", "192.0.3.53", DropDSAV},
}

// doomedWorld builds the world doomedCases run in, traced or not, and
// returns it with the drops AS 300's hook sees.
func doomedWorld(t *testing.T, traced bool) (*world, *[]DropReason) {
	t.Helper()
	w := newWorld(t, func(_, as2, as3 *routing.AS) { as2.DSAV, as3.DSAV = true, true })
	if traced {
		w.net.SetTracer(NewTracer(4))
	}
	hooked := new([]DropReason)
	w.net.SetDropHook(300, func(_ time.Duration, r DropReason, _ *packet.Packet, _ *routing.AS) {
		*hooked = append(*hooked, r)
	})
	return w, hooked
}

// TestFaultsOnDoomedDatagrams: a fault hook is consulted once for each
// doomed datagram past its route lookup, untraced or traced, with a
// Packet that equals a decode of its bytes, and never for one that
// drops before it. A dropped or duplicated doomed datagram is counted as
// the traced network counts it, and as an AS's drop hook sees it there;
// a corrupted one still meets the receiver's decode and ends as
// malformed, not as a DSAV or no-host drop.
func TestFaultsOnDoomedDatagrams(t *testing.T) {
	for _, f := range []struct {
		name  string
		fault func(raw []byte) TransitFault
		want  func(verdict DropReason) map[DropReason]uint64
	}{
		{"drop", func([]byte) TransitFault { return TransitFault{Drop: true} },
			func(DropReason) map[DropReason]uint64 { return map[DropReason]uint64{DropChaos: 1} }},
		{"dup", func([]byte) TransitFault { return TransitFault{Duplicate: true, DupDelay: time.Millisecond} },
			func(v DropReason) map[DropReason]uint64 { return map[DropReason]uint64{v: 2} }},
		{"delay", func([]byte) TransitFault { return TransitFault{ExtraDelay: time.Second} },
			func(v DropReason) map[DropReason]uint64 { return map[DropReason]uint64{v: 1} }},
		{"corrupt", func(raw []byte) TransitFault { return TransitFault{Corrupt: true, CorruptBit: 8 * (len(raw) - 1)} },
			func(DropReason) map[DropReason]uint64 { return map[DropReason]uint64{DropMalformed: 1} }},
	} {
		for _, c := range doomedCases {
			want, wantCalls := f.want(c.verdict), 1
			if c.verdict == DropNoRoute {
				want, wantCalls = map[DropReason]uint64{DropNoRoute: 1}, 0
			}
			var hookedPaths [2][]DropReason
			for i, traced := range []bool{false, true} {
				w, hooked := doomedWorld(t, traced)
				calls := 0
				w.net.SetFaultHook(func(now time.Duration, fold uint64, pkt *packet.Packet, srcAS, dstAS *routing.AS) TransitFault {
					calls++
					fresh, err := packet.Decode(append([]byte(nil), pkt.Raw...))
					if err != nil || !reflect.DeepEqual(pkt.V4, fresh.V4) || !reflect.DeepEqual(pkt.V6, fresh.V6) ||
						!reflect.DeepEqual(pkt.UDP, fresh.UDP) || !bytes.Equal(pkt.Data, fresh.Data) {
						t.Errorf("%s, %s (traced %v): the hook's Packet is not its bytes decoded (%v)", f.name, c.name, traced, err)
					}
					if fold != detrand.FoldBytes(pkt.Raw) {
						t.Errorf("%s, %s (traced %v): the hook's fold is not its bytes folded", f.name, c.name, traced)
					}
					return f.fault(pkt.Raw)
				})
				if err := w.scanner.SendUDP(addr(c.src), 1, addr(c.dst), 53, []byte(f.name)); err != nil {
					t.Fatal(err)
				}
				w.net.Run()
				if got := w.net.Drops(); calls != wantCalls || !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s (traced %v): fault hook called %d times, drops %v; want %d, %v",
						f.name, c.name, traced, calls, got, wantCalls, want)
				}
				hookedPaths[i] = *hooked
			}
			if !reflect.DeepEqual(hookedPaths[0], hookedPaths[1]) {
				t.Errorf("%s, %s: AS 300's drop hook saw %v untraced, %v traced", f.name, c.name, hookedPaths[0], hookedPaths[1])
			}
		}
	}
}

// TestLossOnDoomedDatagrams: with loss on, the doomed datagrams past
// their route lookup take the loss draw on their bytes, and those that
// survive it are counted as a traced network counts them; a datagram
// with no route takes no draw. An AS's drop hook sees the same drops
// either way.
func TestLossOnDoomedDatagrams(t *testing.T) {
	run := func(traced bool) (map[DropReason]uint64, []DropReason) {
		reg := routing.NewRegistry()
		as1 := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{prefix("192.0.2.0/24"), prefix("2001:db8:1::/48")}}
		as2 := &routing.AS{ASN: 2, Prefixes: []netip.Prefix{prefix("198.51.100.0/24"), prefix("2001:db8:2::/48")}, DSAV: true}
		as3 := &routing.AS{ASN: 3, Prefixes: []netip.Prefix{prefix("203.0.113.0/24")}, DSAV: true}
		for _, as := range []*routing.AS{as1, as2, as3} {
			reg.Add(as)
		}
		n := New(reg, Config{Seed: 5, LossRate: 0.3})
		if traced {
			n.SetTracer(NewTracer(1))
		}
		var hooked []DropReason
		n.SetDropHook(3, func(_ time.Duration, r DropReason, _ *packet.Packet, _ *routing.AS) { hooked = append(hooked, r) })
		src, _ := n.Attach("src", as1, addr("192.0.2.1"), addr("2001:db8:1::1"))
		for i := 0; i < 200; i++ {
			port := uint16(1000 + i)
			src.SendUDP(addr("198.51.100.7"), port, addr("198.51.100.1"), 53, []byte{1})   // DSAV
			src.SendUDP(addr("192.0.2.1"), port, addr("198.51.100.9"), 53, []byte{2})      // no host
			src.SendUDP(addr("2001:db8:2::7"), port, addr("2001:db8:2::1"), 53, []byte{3}) // DSAV, IPv6
			src.SendUDP(addr("2001:db8:1::1"), port, addr("2001:db8:2::9"), 53, []byte{4}) // no host, IPv6
			src.SendUDP(addr("192.0.2.1"), port, addr("8.8.8.8"), 53, []byte{5})           // no route
			src.SendUDP(addr("203.0.113.7"), port, addr("203.0.113.1"), 53, []byte{6})     // DSAV, hooked AS
		}
		n.Run()
		return n.Drops(), hooked
	}
	plain, plainHooked := run(false)
	traced, tracedHooked := run(true)
	if !reflect.DeepEqual(plain, traced) || plain[DropLoss] == 0 || plain[DropDSAV] == 0 || plain[DropNoHost] == 0 ||
		plain[DropNoRoute] != 200 {
		t.Fatalf("untraced drops %v, traced %v", plain, traced)
	}
	if !reflect.DeepEqual(plainHooked, tracedHooked) || len(plainHooked) != 200 {
		t.Fatalf("AS 3's drop hook saw %d drops untraced, %d traced, want the same 200", len(plainHooked), len(tracedHooked))
	}
}

// TestSendUDPErrorsBeforeSkipping: a datagram no packet can carry is an
// error, not a counted drop, even when its addresses would doom it.
func TestSendUDPErrorsBeforeSkipping(t *testing.T) {
	w := newWorld(t, nil)
	if err := w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("2001:db8:200::99"), 53, nil); err == nil {
		t.Fatal("mixed address families sent")
	}
	if err := w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("198.51.100.99"), 53, make([]byte, 65508)); err == nil {
		t.Fatal("oversized datagram sent")
	}
	if d := w.net.Drops(); len(d) != 0 {
		t.Fatalf("drops %v", d)
	}
}

// TestAttachRefusedWithEventsPending pins the rule the skip rests on: a
// no-host verdict taken when a datagram is sent holds at its arrival,
// because no host attaches while anything is in flight.
func TestAttachRefusedWithEventsPending(t *testing.T) {
	w := newWorld(t, nil)
	listen53(t, w.target)
	if err := w.scanner.SendUDP(addr("192.0.2.10"), 1, addr("198.51.100.53"), 53, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.net.Attach("late", w.as2, addr("198.51.100.99")); err == nil {
		t.Fatal("host attached with a datagram in flight")
	}
	w.net.Run()
	if _, err := w.net.Attach("late", w.as2, addr("198.51.100.99")); err != nil {
		t.Fatalf("attach after the run: %v", err)
	}
}
