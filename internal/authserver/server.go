package authserver

import (
	"encoding/binary"
	"net/netip"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Transport identifies how a query arrived.
type Transport int

// Transports.
const (
	TransportUDP Transport = iota
	TransportTCP
)

// String names the transport.
func (t Transport) String() string {
	if t == TransportTCP {
		return "tcp"
	}
	return "udp"
}

// LogEntry is one received query, the experiment's unit of observation.
type LogEntry struct {
	// Time is the virtual arrival time.
	Time time.Duration
	// Client is the querying address (the recursive resolver or
	// forwarder target's upstream).
	Client netip.Addr
	// ClientPort is the query's source port (the signal for §5.2).
	ClientPort uint16
	// Server is the local address queried.
	Server netip.Addr
	// Name and Type are the question.
	Name dnswire.Name
	Type dnswire.Type
	// Transport is UDP or TCP.
	Transport Transport
	// SYN is the TCP connection-opening packet (TCP only), inspected by
	// the p0f-style fingerprinter.
	SYN *packet.Packet
}

// Server is an authoritative DNS server bound to a simulated host. It
// serves one or more zones on UDP and TCP port 53 and hands every
// received question to its observer, if it has one; it keeps none.
type Server struct {
	Host  *netsim.Host
	zones []*Zone

	// OnQuery, when set, observes each received question in arrival
	// order — the real-time monitoring that triggers the scanner's
	// follow-up queries (§3.5). The server builds no LogEntry without it.
	OnQuery func(e LogEntry)

	// The server handles one UDP datagram at a time, so one decoded
	// query, one reply and one packed buffer serve them all; each grows
	// on first use and is reused after. SendUDP copies the payload
	// before it returns.
	query, reply dnswire.Message
	buf          []byte
}

// New binds an authoritative server to host, serving the given zones on
// UDP and TCP port 53.
func New(host *netsim.Host, zones ...*Zone) (*Server, error) {
	s := &Server{Host: host, zones: zones}
	if err := host.BindUDP(53, s.handleUDP); err != nil {
		return nil, err
	}
	if err := host.BindTCP(53, s.acceptTCP); err != nil {
		return nil, err
	}
	return s, nil
}

// zoneFor picks the most specific served zone containing name.
func (s *Server) zoneFor(name dnswire.Name) *Zone {
	var best *Zone
	for _, z := range s.zones {
		if !name.IsSubdomainOf(z.Origin) {
			continue
		}
		if best == nil || z.Origin.CountLabels() > best.Origin.CountLabels() {
			best = z
		}
	}
	return best
}

func (s *Server) record(now time.Duration, client netip.Addr, clientPort uint16, server netip.Addr, q dnswire.Question, tr Transport, syn *packet.Packet) {
	if s.OnQuery == nil {
		return
	}
	s.OnQuery(LogEntry{
		Time: now, Client: client, ClientPort: clientPort, Server: server,
		Name: q.Name, Type: q.Type, Transport: tr, SYN: syn,
	})
}

// respond builds the response to msg in r, emptying r's sections
// first, and reports whether msg gets one.
//
//doors:scratch r msg
func (s *Server) respond(r, msg *dnswire.Message, overUDP bool) bool {
	if msg.QR || len(msg.Question) == 0 {
		return false
	}
	if msg.OpCode == dnswire.OpUpdate {
		return false // handled by the caller with the client address
	}
	if msg.OpCode != dnswire.OpQuery {
		return false
	}
	z := s.zoneFor(msg.Q().Name)
	if z == nil {
		msg.ReplyInto(r)
		r.RCode = dnswire.RCodeRefused
		return true
	}
	z.respond(r, msg, overUDP)
	return true
}

// handleUDP answers one UDP query. payload is the network's, valid only
// during the call (netsim.UDPHandler).
//
//doors:scratch payload
func (s *Server) handleUDP(now time.Duration, src netip.Addr, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) {
	msg := &s.query
	if msg.Unpack(payload) != nil {
		return
	}
	if !msg.QR && len(msg.Question) > 0 {
		s.record(now, src, srcPort, dst, msg.Q(), TransportUDP, nil)
	}
	if msg.OpCode == dnswire.OpUpdate && !msg.QR {
		if r := s.handleUpdate(src, msg); r != nil {
			if out, err := r.Pack(); err == nil {
				s.Host.SendUDP(dst, dstPort, src, srcPort, out)
			}
		}
		return
	}
	r := &s.reply
	if !s.respond(r, msg, true) {
		return
	}
	limit := 0 // the classic 512 octets
	if size, ok := msg.EDNSSize(); ok {
		r.SetEDNS(dnswire.DefaultEDNSSize)
		limit = int(size)
	}
	out, err := r.PackUDPBuffer(s.buf, limit)
	if err != nil {
		return
	}
	s.buf = out
	s.Host.SendUDP(dst, dstPort, src, srcPort, out)
}

// handleUpdate routes an RFC 2136 UPDATE to the addressed zone.
func (s *Server) handleUpdate(src netip.Addr, msg *dnswire.Message) *dnswire.Message {
	zone, ok := msg.UpdateZone()
	if !ok {
		return nil
	}
	z := s.zoneFor(zone)
	if z == nil || !z.Origin.Equal(zone) {
		r := msg.Reply()
		r.RCode = dnswire.RCodeNotAuth
		return r
	}
	return z.ApplyUpdate(src, msg)
}

// acceptTCP handles DNS-over-TCP with RFC 7766 2-byte length framing.
func (s *Server) acceptTCP(conn *netsim.TCPConn) {
	var buf []byte
	conn.OnData = func(now time.Duration, data []byte) {
		buf = append(buf, data...)
		for len(buf) >= 2 {
			n := int(binary.BigEndian.Uint16(buf[:2]))
			if len(buf) < 2+n {
				return
			}
			frame := buf[2 : 2+n]
			buf = buf[2+n:]
			msg, err := dnswire.Unpack(frame)
			if err != nil {
				continue
			}
			if !msg.QR && len(msg.Question) > 0 {
				s.record(now, conn.RemoteAddr(), conn.RemotePort(), conn.LocalAddr(), msg.Q(), TransportTCP, conn.SYN)
			}
			r := new(dnswire.Message)
			if !s.respond(r, msg, false) {
				continue
			}
			out, err := r.Pack()
			if err != nil {
				continue
			}
			framed := make([]byte, 2+len(out))
			binary.BigEndian.PutUint16(framed, uint16(len(out)))
			copy(framed[2:], out)
			conn.Send(framed)
		}
	}
}
