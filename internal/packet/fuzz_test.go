package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
)

// FuzzDecode asserts the datagram parser's safety properties on
// arbitrary bytes: Decode never panics; an accepted packet has exactly
// one network and at most one transport layer, valid addresses, and
// decodes identically a second time (acceptance is deterministic and
// Raw preserves the input).
func FuzzDecode(f *testing.F) {
	v4a, v4b := netip.MustParseAddr("203.0.113.5"), netip.MustParseAddr("198.51.100.9")
	v6a, v6b := netip.MustParseAddr("2001:db8::5"), netip.MustParseAddr("2001:db8::9")

	udp4, err := BuildUDP(v4a, v4b, 40000, 53, 64, []byte("\x12\x34\x01\x00\x00\x01payload"))
	if err != nil {
		f.Fatal(err)
	}
	udp6, err := BuildUDP(v6a, v6b, 53, 53, 255, []byte("dns"))
	if err != nil {
		f.Fatal(err)
	}
	syn := &TCP{SrcPort: 1234, DstPort: 53, Seq: 0xdeadbeef, SYN: true, Window: 16384,
		Options: []TCPOption{{Kind: TCPOptMSS, Data: []byte{0x05, 0xb4}}, {Kind: TCPOptSACKPermit}}}
	tcp4, err := BuildTCP(v4a, v4b, syn, 128, nil)
	if err != nil {
		f.Fatal(err)
	}
	psh := &TCP{SrcPort: 53, DstPort: 1234, Seq: 7, Ack: 9, ACK: true, PSH: true, Window: 65535}
	tcp6, err := BuildTCP(v6a, v6b, psh, 64, []byte("\x00\x03abc"))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range [][]byte{udp4, udp6, tcp4, tcp6, udp4[:20], {0x45}, {0x60}, nil} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if (p.V4 == nil) == (p.V6 == nil) {
			t.Fatalf("accepted packet must have exactly one IP layer: %+v", p)
		}
		if p.UDP != nil && p.TCP != nil {
			t.Fatalf("accepted packet has two transport layers")
		}
		if !p.Src().IsValid() || !p.Dst().IsValid() {
			t.Fatalf("accepted packet has invalid addresses: %v -> %v", p.Src(), p.Dst())
		}
		if !bytes.Equal(p.Raw, data) {
			t.Fatalf("Raw does not preserve input")
		}
		p2, err := Decode(p.Raw)
		if err != nil {
			t.Fatalf("re-decode of accepted packet rejected: %v", err)
		}
		if p2.Src() != p.Src() || p2.Dst() != p.Dst() ||
			p2.SrcPort() != p.SrcPort() || p2.DstPort() != p.DstPort() {
			t.Fatalf("re-decode disagrees: %v:%d->%v:%d vs %v:%d->%v:%d",
				p.Src(), p.SrcPort(), p.Dst(), p.DstPort(),
				p2.Src(), p2.SrcPort(), p2.Dst(), p2.DstPort())
		}
		if !bytes.Equal(p2.Data, p.Data) {
			t.Fatalf("re-decode payload disagrees")
		}
	})
}

// FuzzBuild asserts the writers' contract on arbitrary inputs: a build
// either fails, or Decode accepts the datagram it returned and gives
// back every field and the payload. A UDP datagram is also written by
// WriteUDP into reused buffers, one of stale bytes and one that holds a
// longer, different datagram (and, for IPv6, from zoned addresses): it
// must write BuildUDP's bytes into each buffer and fill a Packet equal
// field for field to Decode's.
// family picks IPv4, IPv6, or mixed addresses (which must fail); opts is
// read as a sequence of TCP options, one kind byte each, then for kinds
// other than end-of-options and no-op a length byte and that many data
// bytes.
func FuzzBuild(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0xc0000201), uint64(0), uint64(0xc6336407), uint16(40000), uint16(53), uint8(64),
		[]byte("\x12\x34\x01\x00\x00\x01payload"), false, uint8(0), uint16(0), uint32(0), uint32(0), []byte(nil))
	f.Add(uint8(0), uint64(0), uint64(0xc0000201), uint64(0), uint64(0xc6336407), uint16(16515), uint16(53), uint8(64),
		[]byte("hello, dns"), false, uint8(0), uint16(0), uint32(0), uint32(0), []byte(nil))
	f.Add(uint8(1), uint64(0x20010db800000000), uint64(5), uint64(0x20010db800000000), uint64(9), uint16(1234), uint16(53), uint8(128),
		[]byte(nil), true, uint8(0x02), uint16(29200), uint32(0xdeadbeef), uint32(0),
		[]byte("\x02\x02\x05\xb4\x04\x00\x08\x08\x00\x00\x12\x34\x00\x00\x00\x00\x01\x03\x01\x07"))
	f.Add(uint8(1), uint64(0x20010db800000000), uint64(5), uint64(0x20010db800000000), uint64(9), uint16(53), uint16(1234), uint8(64),
		[]byte("\x00\x03abc"), true, uint8(0x18), uint16(65535), uint32(7), uint32(9), []byte(nil))
	f.Add(uint8(1), uint64(0x20010db800000000), uint64(5), uint64(0x20010db800000000), uint64(9), uint16(53), uint16(40000), uint8(255),
		[]byte("\x12\x34\x81\x80\x00\x01v6 answer"), false, uint8(0), uint16(0), uint32(0), uint32(0), []byte(nil))
	f.Add(uint8(2), uint64(0), uint64(0xc0000201), uint64(0x20010db800000000), uint64(9), uint16(1), uint16(2), uint8(1),
		[]byte("x"), false, uint8(0), uint16(0), uint32(0), uint32(0), []byte(nil))

	f.Fuzz(func(t *testing.T, family uint8, srcHi, srcLo, dstHi, dstLo uint64, sport, dport uint16, ttl uint8,
		payload []byte, isTCP bool, flags uint8, window uint16, seq, ack uint32, opts []byte) {
		addr := func(hi, lo uint64, v6 bool) netip.Addr {
			if !v6 {
				return netip.AddrFrom4([4]byte{byte(lo >> 24), byte(lo >> 16), byte(lo >> 8), byte(lo)})
			}
			var b [16]byte
			binary.BigEndian.PutUint64(b[:8], hi)
			binary.BigEndian.PutUint64(b[8:], lo)
			return netip.AddrFrom16(b)
		}
		family %= 3
		src, dst := addr(srcHi, srcLo, family == 1), addr(dstHi, dstLo, family != 0)

		var (
			raw  []byte
			err  error
			want *TCP
		)
		if isTCP {
			want = &TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Window: window,
				FIN: flags&0x01 != 0, SYN: flags&0x02 != 0, RST: flags&0x04 != 0,
				PSH: flags&0x08 != 0, ACK: flags&0x10 != 0, URG: flags&0x20 != 0}
			for len(opts) > 0 {
				o := TCPOption{Kind: TCPOptionKind(opts[0])}
				n := 1
				if o.Kind != TCPOptEndOfOptions && o.Kind != TCPOptNop && len(opts) > 1 {
					n = min(2+int(opts[1]), len(opts))
					o.Data = opts[2:n]
				}
				want.Options = append(want.Options, o)
				opts = opts[n:]
			}
			raw, err = BuildTCP(src, dst, want, ttl, payload)
		} else {
			raw, err = BuildUDP(src, dst, sport, dport, ttl, payload)
			if check := CheckUDP(src, dst, len(payload)); (check == nil) != (err == nil) {
				t.Fatalf("CheckUDP = %v, BuildUDP = %v", check, err)
			}
		}
		if err != nil {
			return
		}
		if family == 2 {
			t.Fatalf("mixed families %v -> %v built", src, dst)
		}
		p, err := Decode(raw)
		if err != nil {
			t.Fatalf("Decode rejected a built datagram: %v", err)
		}
		if p.Src() != src || p.Dst() != dst || p.SrcPort() != sport || p.DstPort() != dport {
			t.Fatalf("addresses or ports changed: %v:%d -> %v:%d", p.Src(), p.SrcPort(), p.Dst(), p.DstPort())
		}
		proto := uint8(IPProtoUDP)
		if isTCP {
			proto = IPProtoTCP
		}
		switch {
		case family == 0 && (p.V4 == nil || p.V4.TTL != ttl || p.V4.Protocol != proto || !p.V4.DontFrag):
			t.Fatalf("IPv4 header changed: %+v", p.V4)
		case family == 1 && (p.V6 == nil || p.V6.HopLimit != ttl || p.V6.NextHeader != proto):
			t.Fatalf("IPv6 header changed: %+v", p.V6)
		}
		if !bytes.Equal(p.Data, payload) {
			t.Fatalf("payload changed")
		}
		if !isTCP {
			if p.UDP == nil || p.TCP != nil {
				t.Fatalf("UDP datagram decoded as %+v", p)
			}
			checkWriteUDP(t, raw, p, src, dst, sport, dport, ttl, payload)
			return
		}
		got := p.TCP
		if got == nil || got.Seq != want.Seq || got.Ack != want.Ack || got.Window != want.Window ||
			got.FIN != want.FIN || got.SYN != want.SYN || got.RST != want.RST ||
			got.PSH != want.PSH || got.ACK != want.ACK || got.URG != want.URG {
			t.Fatalf("TCP header changed: %+v, want %+v", got, want)
		}
		// Decoding stops at the first end-of-options.
		wantOpts := want.Options
		for i, o := range wantOpts {
			if o.Kind == TCPOptEndOfOptions {
				wantOpts = wantOpts[:i]
				break
			}
		}
		if len(got.Options) != len(wantOpts) {
			t.Fatalf("options = %v, want %v", got.Options, wantOpts)
		}
		for i, o := range wantOpts {
			if got.Options[i].Kind != o.Kind || !bytes.Equal(got.Options[i].Data, o.Data) {
				t.Fatalf("option %d = %v, want %v", i, got.Options[i], o)
			}
		}
	})
}

// checkWriteUDP writes the datagram BuildUDP built as raw, and Decode
// decoded as want, with WriteUDP over a buffer of stale bytes and over
// one that holds a longer, different datagram, and requires the same
// bytes, in that buffer, and a filled Packet equal to want.
func checkWriteUDP(t *testing.T, raw []byte, want *Packet, src, dst netip.Addr, sport, dport uint16, ttl uint8, payload []byte) {
	t.Helper()
	bufs := [][]byte{bytes.Repeat([]byte{0xa5}, len(raw)+64)}
	if other := bytes.Repeat([]byte{0x5a}, len(payload)+64); CheckUDP(dst, src, len(other)) == nil {
		var p Packet
		bufs = append(bufs, WriteUDP(&p, nil, dst, src, ^dport, ^sport, ^ttl, other))
	}
	if src.Is6() {
		src, dst = src.WithZone("eth0"), dst.WithZone("1")
	}
	for _, buf := range bufs {
		var p Packet
		got := WriteUDP(&p, buf, src, dst, sport, dport, ttl, payload)
		if !bytes.Equal(got, raw) || &got[0] != &buf[0] {
			t.Fatalf("WriteUDP wrote %x (in the reused buffer: %v), BuildUDP %x", got, &got[0] == &buf[0], raw)
		}
		if !reflect.DeepEqual(p, *want) {
			t.Fatalf("WriteUDP filled %+v %+v %+v, Decode gives %+v %+v %+v", p.V4, p.V6, p.UDP, want.V4, want.V6, want.UDP)
		}
	}
}
