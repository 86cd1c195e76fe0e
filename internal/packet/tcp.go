package packet

import (
	"encoding/binary"
	"net/netip"
)

// TCPOptionKind identifies a TCP option.
type TCPOptionKind uint8

// TCP option kinds used by the OS fingerprinting models.
const (
	TCPOptEndOfOptions TCPOptionKind = 0
	TCPOptNop          TCPOptionKind = 1
	TCPOptMSS          TCPOptionKind = 2
	TCPOptWindowScale  TCPOptionKind = 3
	TCPOptSACKPermit   TCPOptionKind = 4
	TCPOptTimestamps   TCPOptionKind = 8
)

// TCPOption is a single TCP option as it appears on the wire.
type TCPOption struct {
	Kind TCPOptionKind
	Data []byte // option data, excluding kind and length bytes
}

// TCP is a TCP header (RFC 793) with options.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	SYN, ACK, FIN    bool
	RST, PSH, URG    bool
	Window           uint16
	Options          []TCPOption
}

// Option returns the first option of the given kind and whether it exists.
func (t *TCP) Option(kind TCPOptionKind) (TCPOption, bool) {
	for _, o := range t.Options {
		if o.Kind == kind {
			return o, true
		}
	}
	return TCPOption{}, false
}

// MSS returns the maximum-segment-size option value, if present.
func (t *TCP) MSS() (uint16, bool) {
	o, ok := t.Option(TCPOptMSS)
	if !ok || len(o.Data) != 2 {
		return 0, false
	}
	return binary.BigEndian.Uint16(o.Data), true
}

// WindowScale returns the window-scale option value, if present.
func (t *TCP) WindowScale() (uint8, bool) {
	o, ok := t.Option(TCPOptWindowScale)
	if !ok || len(o.Data) != 1 {
		return 0, false
	}
	return o.Data[0], true
}

func (t *TCP) flags() uint8 {
	var f uint8
	if t.FIN {
		f |= 0x01
	}
	if t.SYN {
		f |= 0x02
	}
	if t.RST {
		f |= 0x04
	}
	if t.PSH {
		f |= 0x08
	}
	if t.ACK {
		f |= 0x10
	}
	if t.URG {
		f |= 0x20
	}
	return f
}

func (t *TCP) setFlags(f uint8) {
	t.FIN = f&0x01 != 0
	t.SYN = f&0x02 != 0
	t.RST = f&0x04 != 0
	t.PSH = f&0x08 != 0
	t.ACK = f&0x10 != 0
	t.URG = f&0x20 != 0
}

// decode parses a TCP header and its options, verifying the checksum,
// and returns the segment's payload. Option data aliases data.
func (t *TCP) decode(src, dst netip.Addr, data []byte) ([]byte, error) {
	if len(data) < tcpMinLen {
		return nil, wireError("bad TCP: truncated header")
	}
	dataOff := int(data[12]>>4) * 4
	if dataOff < tcpMinLen || dataOff > len(data) {
		return nil, wireError("bad TCP: bad data offset")
	}
	if TransportChecksum(src, dst, IPProtoTCP, data) != 0 {
		return nil, wireError("bad TCP: checksum mismatch")
	}
	// Validate and count the options first, so that their slice is one
	// exact allocation.
	opts := data[tcpMinLen:dataOff]
	n := 0
	for rest := opts; len(rest) > 0; n++ {
		size, err := optionSize(rest)
		if err != nil {
			return nil, err
		}
		if size == 0 {
			break
		}
		rest = rest[size:]
	}
	if n > 0 {
		t.Options = make([]TCPOption, n)
		for i := range t.Options {
			size, _ := optionSize(opts)
			t.Options[i].Kind = TCPOptionKind(opts[0])
			if size > 2 {
				t.Options[i].Data = opts[2:size:size]
			}
			opts = opts[size:]
		}
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.setFlags(data[13])
	t.Window = binary.BigEndian.Uint16(data[14:16])
	return data[dataOff:], nil
}

// optionSize returns the wire size of the option at the front of opts,
// or 0 at end-of-options.
func optionSize(opts []byte) (int, error) {
	switch TCPOptionKind(opts[0]) {
	case TCPOptEndOfOptions:
		return 0, nil
	case TCPOptNop:
		return 1, nil
	}
	if len(opts) < 2 {
		return 0, wireError("bad TCP: truncated option")
	}
	size := int(opts[1])
	if size < 2 || size > len(opts) {
		return 0, wireError("bad TCP: bad option length")
	}
	return size, nil
}

// BuildTCP serializes a TCP segment inside the appropriate IP version.
func BuildTCP(src, dst netip.Addr, tcp *TCP, ttl uint8, payload []byte) ([]byte, error) {
	optLen := 0
	for _, o := range tcp.Options {
		if o.Kind == TCPOptNop || o.Kind == TCPOptEndOfOptions {
			optLen++
		} else {
			optLen += 2 + len(o.Data)
		}
	}
	hdrLen := tcpMinLen + (optLen+3)&^3 // options padded with end-of-options
	if hdrLen > 60 {
		return nil, wireError("TCP options too long")
	}
	if err := checkDatagram(src, dst, hdrLen+len(payload)); err != nil {
		return nil, err
	}
	raw, seg := newDatagram(nil, src, dst, IPProtoTCP, ttl, hdrLen+len(payload))
	binary.BigEndian.PutUint16(seg[0:2], tcp.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], tcp.DstPort)
	binary.BigEndian.PutUint32(seg[4:8], tcp.Seq)
	binary.BigEndian.PutUint32(seg[8:12], tcp.Ack)
	seg[12] = uint8(hdrLen/4) << 4
	seg[13] = tcp.flags()
	binary.BigEndian.PutUint16(seg[14:16], tcp.Window)
	p := seg[tcpMinLen:hdrLen]
	for _, o := range tcp.Options {
		p[0] = byte(o.Kind)
		if o.Kind == TCPOptNop || o.Kind == TCPOptEndOfOptions {
			p = p[1:]
			continue
		}
		p[1] = byte(2 + len(o.Data))
		p = p[2+copy(p[2:], o.Data):]
	}
	copy(seg[hdrLen:], payload)
	binary.BigEndian.PutUint16(seg[16:18], TransportChecksum(src, dst, IPProtoTCP, seg))
	return raw, nil
}
