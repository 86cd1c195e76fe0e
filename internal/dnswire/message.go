package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Type is an RR type code.
type Type uint16

// RR types used by the experiment.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

// String returns the RFC mnemonic.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is an RR class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a response code.
type RCode uint8

// Response codes used by the experiment.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the RFC mnemonic.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// OpCode is a query opcode; only QUERY is used.
type OpCode uint8

// OpQuery is the standard query opcode.
const OpQuery OpCode = 0

// Question is a DNS question.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// RR is a resource record. Exactly one of the typed data fields is used
// according to Type; unknown types carry raw Data.
type RR struct {
	Name  Name
	Type  Type
	Class Class
	TTL   uint32

	// A / AAAA
	Addr netip.Addr
	// NS / CNAME / PTR, and the MNAME of SOA
	Target Name
	// SOA
	SOA *SOAData
	// TXT
	Txt []string
	// raw rdata for types this package does not model
	Data []byte
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Message is a DNS message.
type Message struct {
	ID     uint16
	QR     bool // response flag
	OpCode OpCode
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	RCode  RCode

	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR

	names *nameCache // the names recently decoded into m by m.Unpack
}

// maxUDPPayload is the classic 512-byte UDP limit; PackUDP truncates
// responses longer than this unless EDNS0 raises it.
const maxUDPPayload = 512

// NewQuery builds a recursion-desired query for (name, type).
func NewQuery(id uint16, name Name, t Type) *Message {
	return &Message{
		ID: id, RD: true,
		Question: []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// AppendQuery serializes a recursion-desired query for a pre-encoded
// wire-form name (as produced by AppendName, possibly with extra
// leading labels spliced on) directly into buf. It is the allocation-
// free equivalent of NewQuery+Pack for the probe hot path: no Message,
// no compression bookkeeping. The caller guarantees nameWire is a
// valid wire-form name of at most 255 octets.
func AppendQuery(buf []byte, id uint16, nameWire []byte, t Type) []byte {
	buf = append(buf,
		byte(id>>8), byte(id),
		0x01, 0x00, // RD set, everything else clear
		0x00, 0x01, // QDCOUNT = 1
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	)
	buf = append(buf, nameWire...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(t))
	return binary.BigEndian.AppendUint16(buf, uint16(ClassIN))
}

// Reply builds a response skeleton echoing the question section.
func (m *Message) Reply() *Message {
	r := new(Message)
	m.ReplyInto(r)
	return r
}

// ReplyInto makes r the response skeleton Reply builds, in r's own
// section storage: r's header is m's reply header, its question section
// a copy of m's, and its other sections are emptied for the caller to
// fill.
func (m *Message) ReplyInto(r *Message) {
	*r = Message{
		ID: m.ID, QR: true, OpCode: m.OpCode, RD: m.RD,
		Question:   append(r.Question[:0], m.Question...),
		Answer:     r.Answer[:0],
		Authority:  r.Authority[:0],
		Additional: r.Additional[:0],
	}
}

// Q returns the first question, or a zero Question if none.
func (m *Message) Q() Question {
	if len(m.Question) == 0 {
		return Question{}
	}
	return m.Question[0]
}

// Pack serializes the message with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.PackBuffer(make([]byte, 0, maxUDPPayload))
}

// PackBuffer is Pack writing into buf's storage from its start: it
// returns the packed message in buf's array when it fits, and in a
// larger one otherwise. Whatever buf held is overwritten.
func (m *Message) PackBuffer(buf []byte) ([]byte, error) {
	buf, _, err := m.pack(buf)
	return buf, err
}

// PackUDP serializes the message for a UDP response of at most limit
// octets (raised to 512, the classic limit, when lower). A message that
// does not fit is cut to its header and question section with TC set
// and the other section counts zeroed, which is what sends the client
// to TCP. Compression pointers only point backwards, so the cut bytes
// are those the header and question alone would pack to.
func (m *Message) PackUDP(limit int) ([]byte, error) {
	return m.PackUDPBuffer(make([]byte, 0, maxUDPPayload), limit)
}

// PackUDPBuffer is PackUDP writing into buf's storage, as PackBuffer
// does.
func (m *Message) PackUDPBuffer(buf []byte, limit int) ([]byte, error) {
	buf, question, err := m.pack(buf)
	if err != nil || len(buf) <= max(limit, maxUDPPayload) {
		return buf, err
	}
	buf[2] |= 1 << 1 // TC, bit 9 of the flags
	clear(buf[6:12])
	return buf[:question], nil
}

// pack serializes the message into buf's storage from its start and
// returns where its question section ends.
func (m *Message) pack(buf []byte) (_ []byte, question int, err error) {
	buf = append(buf[:0], make([]byte, 12)...)
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

	var c compressor
	for _, q := range m.Question {
		if buf, err = c.append(buf, q.Name); err != nil {
			return nil, 0, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	question = len(buf)
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for i := range sec {
			if buf, err = packRR(buf, &c, &sec[i]); err != nil {
				return nil, 0, err
			}
		}
	}
	return buf, question, nil
}

func packRR(buf []byte, c *compressor, rr *RR) ([]byte, error) {
	var err error
	if buf, err = c.append(buf, rr.Name); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0) // rdlength placeholder
	if rr.Class == ClassANY && rr.Data == nil && !rr.Addr.IsValid() && rr.Target == "" && rr.SOA == nil && rr.Txt == nil {
		// RFC 2136 RRset deletion: empty RDATA regardless of type.
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

// Unpack parses a wire-format message. Every name is a fresh string.
func Unpack(msg []byte) (*Message, error) {
	m := new(Message)
	if err := m.unpack(msg); err != nil {
		return nil, err
	}
	return m, nil
}

// Unpack parses a wire-format message into m, reusing the storage of
// m's sections: the result is the package Unpack's, except that a
// section m had storage for is empty rather than nil when the message
// has none. m keeps the last few names decoded into it, and a name
// with the same bytes as one of them, case included, is that same
// string rather than a new one. Record data is fresh, so a record
// copied out of m stays valid after m's next decode. On error m holds
// part of the message.
func (m *Message) Unpack(msg []byte) error {
	if m.names == nil {
		m.names = new(nameCache)
	}
	return m.unpack(msg)
}

// unpack parses msg into m, taking names from m.names, which it keeps.
func (m *Message) unpack(msg []byte) error {
	if len(msg) < 12 {
		return errTruncated
	}
	*m = Message{
		ID:       binary.BigEndian.Uint16(msg[0:2]),
		Question: m.Question[:0], Answer: m.Answer[:0], Authority: m.Authority[:0], Additional: m.Additional[:0],
		names: m.names,
	}
	flags := binary.BigEndian.Uint16(msg[2:4])
	m.QR = flags&(1<<15) != 0
	m.OpCode = OpCode(flags >> 11 & 0xf)
	m.AA = flags&(1<<10) != 0
	m.TC = flags&(1<<9) != 0
	m.RD = flags&(1<<8) != 0
	m.RA = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xf)
	qd := int(binary.BigEndian.Uint16(msg[4:6]))
	an := int(binary.BigEndian.Uint16(msg[6:8]))
	ns := int(binary.BigEndian.Uint16(msg[8:10]))
	ar := int(binary.BigEndian.Uint16(msg[10:12]))

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = readName(msg, off, m.names)
		if err != nil {
			return err
		}
		if off+4 > len(msg) {
			return errTruncated
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off : off+2]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
		off += 4
		m.Question = append(m.Question, q)
	}
	for _, sec := range []struct {
		n   int
		dst *[]RR
	}{{an, &m.Answer}, {ns, &m.Authority}, {ar, &m.Additional}} {
		for i := 0; i < sec.n; i++ {
			var rr RR
			rr, off, err = unpackRR(msg, off, m.names)
			if err != nil {
				return err
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	return nil
}

func unpackRR(msg []byte, off int, names *nameCache) (RR, int, error) {
	var rr RR
	var err error
	rr.Name, off, err = readName(msg, off, names)
	if err != nil {
		return rr, 0, err
	}
	if off+10 > len(msg) {
		return rr, 0, errTruncated
	}
	rr.Type = Type(binary.BigEndian.Uint16(msg[off : off+2]))
	rr.Class = Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
	rr.TTL = binary.BigEndian.Uint32(msg[off+4 : off+8])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
	off += 10
	if off+rdlen > len(msg) {
		return rr, 0, errTruncated
	}
	rdata := msg[off : off+rdlen]
	end := off + rdlen
	if rdlen == 0 && rr.Class == ClassANY {
		return rr, end, nil // RFC 2136 RRset deletion
	}
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, 0, errors.New("dnswire: bad A rdata length")
		}
		rr.Addr = netip.AddrFrom4([4]byte(rdata))
	case TypeAAAA:
		if rdlen != 16 {
			return rr, 0, errors.New("dnswire: bad AAAA rdata length")
		}
		rr.Addr = netip.AddrFrom16([16]byte(rdata))
	case TypeNS, TypeCNAME, TypePTR:
		var p int
		rr.Target, p, err = readName(msg, off, names)
		if err != nil {
			return rr, 0, err
		}
		if p != end {
			return rr, 0, fmt.Errorf("dnswire: bad %v rdata length", rr.Type)
		}
	case TypeSOA:
		soa := &SOAData{}
		p := off
		soa.MName, p, err = readName(msg, p, names)
		if err != nil {
			return rr, 0, err
		}
		soa.RName, p, err = readName(msg, p, names)
		if err != nil {
			return rr, 0, err
		}
		if p+20 != end {
			return rr, 0, errors.New("dnswire: bad SOA rdata length")
		}
		soa.Serial = binary.BigEndian.Uint32(msg[p : p+4])
		soa.Refresh = binary.BigEndian.Uint32(msg[p+4 : p+8])
		soa.Retry = binary.BigEndian.Uint32(msg[p+8 : p+12])
		soa.Expire = binary.BigEndian.Uint32(msg[p+12 : p+16])
		soa.Minimum = binary.BigEndian.Uint32(msg[p+16 : p+20])
		rr.SOA = soa
	case TypeTXT:
		for p := 0; p < rdlen; {
			l := int(rdata[p])
			if p+1+l > rdlen {
				return rr, 0, errors.New("dnswire: bad TXT rdata")
			}
			rr.Txt = append(rr.Txt, string(rdata[p+1:p+1+l]))
			p += 1 + l
		}
	default:
		rr.Data = append([]byte(nil), rdata...)
	}
	return rr, end, nil
}
