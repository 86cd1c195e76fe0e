// Package packet implements the wire formats carried on simulated links:
// IPv4, IPv6, UDP, and TCP. BuildUDP and BuildTCP size a datagram
// exactly and write its IP header, transport header, payload and both
// checksums into one allocation. Decode parses a datagram into one
// Packet that holds its headers by value, checking the IPv4 header
// checksum and the transport checksum over the bytes in place.
// WriteUDP is the scratch writer: it writes BuildUDP's bytes into a
// buffer the caller reuses and fills a Packet from its arguments,
// field for field what Decode would give for those bytes, without
// decoding them.
//
// Packets inside the simulator are real bytes. Border filters, kernels,
// and endpoints all parse the same serialized representation, so the
// code paths exercised are the ones a raw-socket implementation would
// use on a real network; the simulator skips building only a datagram
// whose bytes nothing would read (internal/netsim). CheckUDP tells,
// without building, whether BuildUDP would fail. A built datagram is
// never written again, and a decoded or filled Packet's payload and TCP
// option data alias the datagram, so a Packet WriteUDP filled on a
// reused buffer holds only until the buffer's next write.
package packet

import (
	"encoding/binary"
	"net/netip"
)

// IP protocol numbers used by the simulator.
const (
	IPProtoTCP = 6
	IPProtoUDP = 17
)

const (
	ipv4MinLen    = 20
	ipv6HeaderLen = 40
	udpHeaderLen  = 8
	tcpMinLen     = 20
)

// wireError reports a malformed datagram, or one that cannot be built.
type wireError string

// Error implements error.
func (e wireError) Error() string { return "packet: " + string(e) }

// IPv4 is an IPv4 header (RFC 791). Options are not modeled; IHL is
// always 5 on serialization and options are skipped on decode.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
}

// IPv6 is an IPv6 fixed header (RFC 8200). Extension headers are not
// modeled; NextHeader is the transport protocol directly.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
}

// UDP is a UDP header (RFC 768).
type UDP struct {
	SrcPort, DstPort uint16
}

// Packet is a fully decoded IP datagram as seen on a simulated link.
type Packet struct {
	// Exactly one of V4/V6 is non-nil.
	V4 *IPv4
	V6 *IPv6
	// Exactly one of UDP/TCP is non-nil for transport datagrams the
	// simulator understands; both nil means an unknown protocol.
	UDP *UDP
	TCP *TCP
	// Data is the transport payload.
	Data []byte
	// Raw is the original wire representation.
	Raw []byte

	// The decoded headers the pointers above refer to, held by value so
	// that a decode is one allocation.
	v4  IPv4
	v6  IPv6
	tcp TCP
	udp UDP
}

// Src returns the network-layer source address.
func (p *Packet) Src() netip.Addr {
	if p.V4 != nil {
		return p.V4.Src
	}
	return p.V6.Src
}

// Dst returns the network-layer destination address.
func (p *Packet) Dst() netip.Addr {
	if p.V4 != nil {
		return p.V4.Dst
	}
	return p.V6.Dst
}

// TTL returns the IPv4 TTL or the IPv6 hop limit.
func (p *Packet) TTL() uint8 {
	if p.V4 != nil {
		return p.V4.TTL
	}
	return p.V6.HopLimit
}

// IsIPv6 reports whether the packet is IPv6.
func (p *Packet) IsIPv6() bool { return p.V6 != nil }

// SrcPort returns the transport source port (0 if no transport layer).
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.UDP != nil:
		return p.UDP.SrcPort
	case p.TCP != nil:
		return p.TCP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port (0 if no transport layer).
func (p *Packet) DstPort() uint16 {
	switch {
	case p.UDP != nil:
		return p.UDP.DstPort
	case p.TCP != nil:
		return p.TCP.DstPort
	}
	return 0
}

// Decode parses a wire-format datagram, sniffing the IP version from the
// first nibble. Transport checksums are verified against the IP
// pseudo-header.
func Decode(raw []byte) (*Packet, error) {
	if len(raw) == 0 {
		return nil, wireError("empty packet")
	}
	p := &Packet{Raw: raw}
	var (
		proto uint8
		seg   []byte
		err   error
	)
	switch raw[0] >> 4 {
	case 4:
		p.V4 = &p.v4
		seg, err = p.v4.decode(raw)
		proto = p.v4.Protocol
	case 6:
		p.V6 = &p.v6
		seg, err = p.v6.decode(raw)
		proto = p.v6.NextHeader
	default:
		return nil, wireError("unknown IP version")
	}
	if err != nil {
		return nil, err
	}
	switch proto {
	case IPProtoUDP:
		p.UDP = &p.udp
		p.Data, err = p.udp.decode(p.Src(), p.Dst(), seg)
	case IPProtoTCP:
		p.TCP = &p.tcp
		p.Data, err = p.tcp.decode(p.Src(), p.Dst(), seg)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// decode parses an IPv4 header, verifying its checksum, and returns the
// datagram's payload.
func (ip *IPv4) decode(data []byte) ([]byte, error) {
	if len(data) < ipv4MinLen {
		return nil, wireError("bad IPv4: truncated header")
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ipv4MinLen || ihl > len(data) {
		return nil, wireError("bad IPv4: bad IHL")
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl || total > len(data) {
		return nil, wireError("bad IPv4: bad total length")
	}
	if Checksum(data[:ihl]) != 0 {
		return nil, wireError("bad IPv4: header checksum mismatch")
	}
	ip.TOS = data[1]
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.DontFrag = data[6]&0x40 != 0
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	return data[ihl:total], nil
}

// decode parses an IPv6 fixed header and returns the datagram's payload.
func (ip *IPv6) decode(data []byte) ([]byte, error) {
	if len(data) < ipv6HeaderLen {
		return nil, wireError("bad IPv6: truncated header")
	}
	plen := int(binary.BigEndian.Uint16(data[4:6]))
	if ipv6HeaderLen+plen > len(data) {
		return nil, wireError("bad IPv6: bad payload length")
	}
	vtf := binary.BigEndian.Uint32(data[0:4])
	ip.TrafficClass = uint8(vtf >> 20)
	ip.FlowLabel = vtf & 0xfffff
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	ip.Src = netip.AddrFrom16([16]byte(data[8:24]))
	ip.Dst = netip.AddrFrom16([16]byte(data[24:40]))
	return data[ipv6HeaderLen : ipv6HeaderLen+plen], nil
}

// decode parses a UDP header, verifying a nonzero checksum, and returns
// the datagram's payload.
func (u *UDP) decode(src, dst netip.Addr, data []byte) ([]byte, error) {
	if len(data) < udpHeaderLen {
		return nil, wireError("bad UDP: truncated header")
	}
	length := int(binary.BigEndian.Uint16(data[4:6]))
	if length < udpHeaderLen || length > len(data) {
		return nil, wireError("bad UDP: bad length")
	}
	if binary.BigEndian.Uint16(data[6:8]) != 0 && TransportChecksum(src, dst, IPProtoUDP, data[:length]) != 0 {
		return nil, wireError("bad UDP: checksum mismatch")
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	return data[udpHeaderLen:length], nil
}

// checkDatagram returns the error newDatagram would return for these
// addresses and a segLen-byte transport segment.
func checkDatagram(src, dst netip.Addr, segLen int) error {
	switch {
	case !src.IsValid() || !dst.IsValid():
		return wireError("invalid address")
	case src.Is4() != dst.Is4():
		return wireError("mixed address families")
	case src.Is4() && ipv4MinLen+segLen > 0xffff:
		return wireError("IPv4 total length over 65535")
	case !src.Is4() && segLen > 0xffff:
		return wireError("IPv6 payload length over 65535")
	}
	return nil
}

// newDatagram writes the IP header of a datagram for a segLen-byte
// transport segment into buf's storage, or into a new allocation of the
// whole datagram when buf is too short, after checkDatagram passed.
// Every header byte it does not set is zero. It returns the datagram and
// the segment within it.
func newDatagram(buf []byte, src, dst netip.Addr, proto, ttl uint8, segLen int) (raw, seg []byte) {
	hdrLen := ipv6HeaderLen
	if src.Is4() {
		hdrLen = ipv4MinLen
	}
	if n := hdrLen + segLen; cap(buf) < n {
		raw = make([]byte, n)
	} else {
		raw = buf[:n]
		clear(raw[:hdrLen])
	}
	if src.Is4() {
		raw[0] = 4<<4 | 5
		binary.BigEndian.PutUint16(raw[2:4], uint16(len(raw)))
		raw[6] = 0x40 // don't fragment
		raw[8] = ttl
		raw[9] = proto
		s, d := src.As4(), dst.As4()
		copy(raw[12:16], s[:])
		copy(raw[16:20], d[:])
		binary.BigEndian.PutUint16(raw[10:12], Checksum(raw[:ipv4MinLen]))
		return raw, raw[ipv4MinLen:]
	}
	raw[0] = 6 << 4
	binary.BigEndian.PutUint16(raw[4:6], uint16(segLen))
	raw[6] = proto
	raw[7] = ttl
	s, d := src.As16(), dst.As16()
	copy(raw[8:24], s[:])
	copy(raw[24:40], d[:])
	return raw, raw[ipv6HeaderLen:]
}

// CheckUDP returns the error BuildUDP would return for these addresses
// and a payloadLen-byte payload, without building anything.
func CheckUDP(src, dst netip.Addr, payloadLen int) error {
	length := udpHeaderLen + payloadLen
	if length > 0xffff {
		return wireError("UDP datagram too long")
	}
	return checkDatagram(src, dst, length)
}

// BuildUDP serializes a UDP datagram inside the appropriate IP version for
// the given addresses. ttl is used as the IPv4 TTL or IPv6 hop limit.
func BuildUDP(src, dst netip.Addr, srcPort, dstPort uint16, ttl uint8, payload []byte) ([]byte, error) {
	if err := CheckUDP(src, dst, len(payload)); err != nil {
		return nil, err
	}
	return writeUDP(nil, src, dst, srcPort, dstPort, ttl, payload), nil
}

// WriteUDP writes the datagram BuildUDP builds into buf's storage,
// allocating only when buf is too short, and fills p as Decode fills it
// from those bytes: p.Raw is the datagram and p.Data its payload, both
// within buf. The arguments must pass CheckUDP. A caller reusing one
// buffer passes the returned datagram back as buf.
func WriteUDP(p *Packet, buf []byte, src, dst netip.Addr, srcPort, dstPort uint16, ttl uint8, payload []byte) []byte {
	raw := writeUDP(buf, src, dst, srcPort, dstPort, ttl, payload)
	*p = Packet{Raw: raw, Data: raw[len(raw)-len(payload):], UDP: &p.udp, udp: UDP{SrcPort: srcPort, DstPort: dstPort}}
	if src.Is4() {
		p.V4 = &p.v4
		p.v4 = IPv4{DontFrag: true, TTL: ttl, Protocol: IPProtoUDP, Src: netip.AddrFrom4(src.As4()), Dst: netip.AddrFrom4(dst.As4())}
	} else {
		p.V6 = &p.v6
		p.v6 = IPv6{NextHeader: IPProtoUDP, HopLimit: ttl, Src: netip.AddrFrom16(src.As16()), Dst: netip.AddrFrom16(dst.As16())}
	}
	return raw
}

// writeUDP writes a UDP datagram into buf's storage as newDatagram does,
// after CheckUDP passed.
func writeUDP(buf []byte, src, dst netip.Addr, srcPort, dstPort uint16, ttl uint8, payload []byte) []byte {
	length := udpHeaderLen + len(payload)
	raw, seg := newDatagram(buf, src, dst, IPProtoUDP, ttl, length)
	binary.BigEndian.PutUint16(seg[0:2], srcPort)
	binary.BigEndian.PutUint16(seg[2:4], dstPort)
	binary.BigEndian.PutUint16(seg[4:6], uint16(length))
	seg[6], seg[7] = 0, 0
	copy(seg[udpHeaderLen:], payload)
	sum := TransportChecksum(src, dst, IPProtoUDP, seg)
	if sum == 0 {
		sum = 0xffff // RFC 768: transmitted as all ones
	}
	binary.BigEndian.PutUint16(seg[6:8], sum)
	return raw
}
