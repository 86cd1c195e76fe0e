package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/detrand"
	"repro/internal/packet"
)

// isn derives an initial sequence number from the flow 4-tuple and the
// current virtual time (RFC 6528 in spirit): deterministic per flow,
// independent of any shared RNG stream so it is shard-invariant.
func (n *Network) isn(local netip.Addr, localPort uint16, remote netip.Addr, remotePort uint16) uint32 {
	lh, ll := detrand.AddrWords(local)
	rh, rl := detrand.AddrWords(remote)
	ports := uint64(localPort)<<16 | uint64(remotePort)
	return uint32(detrand.Mix(n.seed, uint64(n.Q.Now()), lh, ll, rh, rl, ports, saltISN))
}

// TCPAccept is called on a listening host when a new connection reaches
// the established state.
type TCPAccept func(conn *TCPConn)

type tcpKey struct {
	local      netip.Addr
	localPort  uint16
	remote     netip.Addr
	remotePort uint16
}

type tcpState int

const (
	tcpSynSent tcpState = iota
	tcpSynReceived
	tcpEstablished
	tcpClosed
)

// TCPConn is one side of a simulated TCP connection. The implementation
// is deliberately minimal — in-order, single-segment sends, no
// retransmission — which is sufficient for DNS-over-TCP on the
// simulator's lossless links while still exchanging real TCP segments
// (so SYNs carry fingerprintable options and transit-decremented TTLs).
type TCPConn struct {
	host  *Host
	key   tcpKey
	state tcpState
	seq   uint32
	ack   uint32

	// OnData receives payload segments.
	OnData func(now time.Duration, data []byte)
	// OnClose fires when the peer closes or the connection resets.
	OnClose func(now time.Duration)

	// SYN is the connection-opening segment as received (server side
	// only): the packet a p0f-style fingerprinter inspects. Its V4/V6
	// header carries the hop-decremented TTL.
	SYN *packet.Packet

	onConnect func(*TCPConn)
	server    bool
}

// LocalAddr returns this side's address.
func (c *TCPConn) LocalAddr() netip.Addr { return c.key.local }

// RemoteAddr returns the peer address.
func (c *TCPConn) RemoteAddr() netip.Addr { return c.key.remote }

// RemotePort returns the peer port.
func (c *TCPConn) RemotePort() uint16 { return c.key.remotePort }

// Established reports whether the handshake completed.
func (c *TCPConn) Established() bool { return c.state == tcpEstablished }

// synOptions builds the SYN option list from the host's OS fingerprint
// (or a normalized set when the host scrubs fingerprints).
func (h *Host) synOptions() (opts []packet.TCPOption, window uint16) {
	if h.ScrubFingerprint || h.OS == nil {
		mss := make([]byte, 2)
		binary.BigEndian.PutUint16(mss, 1400)
		return []packet.TCPOption{{Kind: packet.TCPOptMSS, Data: mss}}, 16384
	}
	fp := h.OS.Fingerprint
	mss := make([]byte, 2)
	binary.BigEndian.PutUint16(mss, fp.MSS)
	opts = append(opts, packet.TCPOption{Kind: packet.TCPOptMSS, Data: mss})
	if fp.SACKPermit {
		opts = append(opts, packet.TCPOption{Kind: packet.TCPOptSACKPermit})
	}
	if fp.Timestamps {
		opts = append(opts, packet.TCPOption{Kind: packet.TCPOptTimestamps, Data: make([]byte, 8)})
	}
	if fp.WindowScale >= 0 {
		opts = append(opts,
			packet.TCPOption{Kind: packet.TCPOptNop},
			packet.TCPOption{Kind: packet.TCPOptWindowScale, Data: []byte{byte(fp.WindowScale)}})
	}
	return opts, fp.WindowSize
}

// BindTCP registers an accept callback for the given port.
func (h *Host) BindTCP(port uint16, fn TCPAccept) error {
	if port == 0 {
		return fmt.Errorf("netsim: %s: cannot bind TCP port 0", h.Name)
	}
	if _, dup := h.tcpLst[port]; dup {
		return fmt.Errorf("netsim: %s: TCP port %d already bound", h.Name, port)
	}
	h.tcpLst[port] = fn
	return nil
}

// DialTCP opens a connection from (local, localPort) to the remote
// endpoint. onConnect fires when the handshake completes. The SYN
// carries the host's OS fingerprint.
func (h *Host) DialTCP(local netip.Addr, localPort uint16, remote netip.Addr, remotePort uint16, onConnect func(*TCPConn)) (*TCPConn, error) {
	key := tcpKey{local: local, localPort: localPort, remote: remote, remotePort: remotePort}
	if _, dup := h.tcpConn[key]; dup {
		return nil, fmt.Errorf("netsim: %s: connection %v already exists", h.Name, key)
	}
	c := &TCPConn{host: h, key: key, state: tcpSynSent, onConnect: onConnect}
	c.seq = h.net.isn(local, localPort, remote, remotePort)
	h.tcpConn[key] = c

	opts, window := h.synOptions()
	syn := &packet.TCP{
		SrcPort: localPort, DstPort: remotePort,
		Seq: c.seq, SYN: true, Window: window, Options: opts,
	}
	raw, err := packet.BuildTCP(local, remote, syn, h.ttl(), nil)
	if err != nil {
		delete(h.tcpConn, key)
		return nil, err
	}
	c.seq++
	h.net.inject(h.AS, raw)
	return c, nil
}

// Send transmits payload as a single PSH segment.
func (c *TCPConn) Send(payload []byte) error {
	if c.state != tcpEstablished {
		return fmt.Errorf("netsim: send on non-established connection")
	}
	seg := &packet.TCP{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.seq, Ack: c.ack, ACK: true, PSH: true, Window: 65535,
	}
	raw, err := packet.BuildTCP(c.key.local, c.key.remote, seg, c.host.ttl(), payload)
	if err != nil {
		return err
	}
	c.seq += uint32(len(payload))
	c.host.net.inject(c.host.AS, raw)
	return nil
}

// Close sends FIN and tears the connection down locally.
func (c *TCPConn) Close() {
	if c.state == tcpClosed {
		return
	}
	fin := &packet.TCP{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.seq, Ack: c.ack, FIN: true, ACK: true, Window: 65535,
	}
	if raw, err := packet.BuildTCP(c.key.local, c.key.remote, fin, c.host.ttl(), nil); err == nil {
		c.host.net.inject(c.host.AS, raw)
	}
	c.state = tcpClosed
	delete(c.host.tcpConn, c.key)
}

// deliverTCP is the host-side TCP demux.
func (h *Host) deliverTCP(pkt *packet.Packet, crossedBorder bool) {
	t := pkt.TCP
	key := tcpKey{local: pkt.Dst(), localPort: t.DstPort, remote: pkt.Src(), remotePort: t.SrcPort}
	now := h.net.Q.Now()

	if c, ok := h.tcpConn[key]; ok {
		h.net.delivered++
		h.net.traceDelivery(pkt, h.AS, crossedBorder)
		c.handleSegment(now, pkt)
		return
	}
	// New connection: must be a SYN to a listening port.
	if t.SYN && !t.ACK {
		accept := h.tcpLst[t.DstPort]
		if accept == nil {
			h.net.drop(DropNoListener, pkt, h.AS)
			h.sendRST(pkt)
			return
		}
		h.net.delivered++
		h.net.traceDelivery(pkt, h.AS, crossedBorder)
		c := &TCPConn{host: h, key: key, state: tcpSynReceived, server: true, SYN: pkt}
		c.seq = h.net.isn(key.local, key.localPort, key.remote, key.remotePort)
		c.ack = t.Seq + 1
		c.onConnect = accept
		h.tcpConn[key] = c

		opts, window := h.synOptions()
		synack := &packet.TCP{
			SrcPort: key.localPort, DstPort: key.remotePort,
			Seq: c.seq, Ack: c.ack, SYN: true, ACK: true,
			Window: window, Options: opts,
		}
		if raw, err := packet.BuildTCP(key.local, key.remote, synack, h.ttl(), nil); err == nil {
			c.seq++
			h.net.inject(h.AS, raw)
		}
		return
	}
	h.net.drop(DropNoListener, pkt, h.AS)
	if !t.RST {
		h.sendRST(pkt)
	}
}

// sendRST answers a segment addressed to a closed port or dead
// connection with RST, as a real stack would, so dialers fail fast
// instead of timing out.
func (h *Host) sendRST(pkt *packet.Packet) {
	t := pkt.TCP
	rst := &packet.TCP{
		SrcPort: t.DstPort, DstPort: t.SrcPort,
		Seq: t.Ack, Ack: t.Seq + 1, RST: true, ACK: true,
	}
	if raw, err := packet.BuildTCP(pkt.Dst(), pkt.Src(), rst, h.ttl(), nil); err == nil {
		h.net.inject(h.AS, raw)
	}
}

func (c *TCPConn) handleSegment(now time.Duration, pkt *packet.Packet) {
	t := pkt.TCP
	switch {
	case t.RST:
		c.teardown(now)
	case c.state == tcpSynSent && t.SYN && t.ACK:
		c.ack = t.Seq + 1
		c.state = tcpEstablished
		ack := &packet.TCP{
			SrcPort: c.key.localPort, DstPort: c.key.remotePort,
			Seq: c.seq, Ack: c.ack, ACK: true, Window: 65535,
		}
		if raw, err := packet.BuildTCP(c.key.local, c.key.remote, ack, c.host.ttl(), nil); err == nil {
			c.host.net.inject(c.host.AS, raw)
		}
		if c.onConnect != nil {
			c.onConnect(c)
		}
	case c.state == tcpSynReceived && t.ACK && !t.SYN:
		c.state = tcpEstablished
		if c.onConnect != nil {
			c.onConnect(c)
		}
		if len(pkt.Data) > 0 { // piggybacked data
			c.ack += uint32(len(pkt.Data))
			if c.OnData != nil {
				c.OnData(now, pkt.Data)
			}
		}
	case c.state == tcpEstablished && t.FIN:
		c.teardown(now)
	case c.state == tcpEstablished && len(pkt.Data) > 0:
		c.ack = t.Seq + uint32(len(pkt.Data))
		if c.OnData != nil {
			c.OnData(now, pkt.Data)
		}
	}
}

func (c *TCPConn) teardown(now time.Duration) {
	if c.state == tcpClosed {
		return
	}
	c.state = tcpClosed
	delete(c.host.tcpConn, c.key)
	if c.OnClose != nil {
		c.OnClose(now)
	}
}
