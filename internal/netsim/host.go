package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/routing"
)

// UDPHandler receives a delivered UDP datagram.
type UDPHandler func(now time.Duration, src netip.Addr, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte)

// Host is a simulated end system: one machine with one or more addresses
// in a single AS.
type Host struct {
	net   *Network
	Name  string
	AS    *routing.AS
	Addrs []netip.Addr
	// OS selects kernel behaviour (spoof acceptance, default TTL,
	// fingerprint). A nil OS accepts everything and uses TTL 64.
	OS *oskernel.Profile
	// ScrubFingerprint normalizes outgoing SYN options (as a middlebox
	// or load balancer would), defeating p0f classification.
	ScrubFingerprint bool
	// down marks a host that went offline (churn, §3.6.2): inbound
	// packets are dropped as if the address were unbound.
	down bool

	udp     map[uint16]UDPHandler
	tcpLst  map[uint16]TCPAccept
	tcpConn map[tcpKey]*TCPConn
}

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// Addr returns the host's first address of the requested family, or the
// zero Addr if it has none.
func (h *Host) Addr(v6 bool) netip.Addr {
	for _, a := range h.Addrs {
		if a.Is6() == v6 {
			return a
		}
	}
	return netip.Addr{}
}

// HasAddr reports whether a is bound to this host.
func (h *Host) HasAddr(a netip.Addr) bool {
	for _, x := range h.Addrs {
		if x == a {
			return true
		}
	}
	return false
}

func (h *Host) ttl() uint8 {
	if h.OS != nil {
		return h.OS.Fingerprint.InitialTTL
	}
	return 64
}

// BindUDP registers a handler for datagrams to the given port on any of
// the host's addresses. Binding port 0 or double-binding is an error.
func (h *Host) BindUDP(port uint16, fn UDPHandler) error {
	if port == 0 {
		return fmt.Errorf("netsim: %s: cannot bind UDP port 0", h.Name)
	}
	if _, dup := h.udp[port]; dup {
		return fmt.Errorf("netsim: %s: UDP port %d already bound", h.Name, port)
	}
	h.udp[port] = fn
	return nil
}

// UnbindUDP removes a UDP binding.
func (h *Host) UnbindUDP(port uint16) { delete(h.udp, port) }

// SendUDP transmits a datagram from src (which may be spoofed; the
// host's own addresses for honest traffic) to dst. It returns
// packet.BuildUDP's error for addresses or a payload no datagram can
// carry. A datagram whose addresses alone doom it, with nothing to
// record its drop, is never built on the heap: with no loss draw or
// fault hook to read its bytes it is only counted, and with them it is
// written on the network's scratch buffer for the draws.
func (h *Host) SendUDP(src netip.Addr, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) error {
	if err := packet.CheckUDP(src, dst, len(payload)); err != nil {
		return err
	}
	n, ttl := h.net, h.ttl()
	v := n.judge(h.AS, src, dst, ttl)
	var pkt *packet.Packet
	switch {
	case v.drop == DropNone || !n.unwatched(v.dstAS):
		pkt = new(packet.Packet)
		packet.WriteUDP(pkt, nil, src, dst, srcPort, dstPort, ttl, payload)
	case v.dstAS != nil && (n.cfg.LossRate > 0 || n.faults != nil):
		pkt = &n.scratchPkt
		n.scratch = packet.WriteUDP(pkt, n.scratch, src, dst, srcPort, dstPort, ttl, payload)
	}
	if fault, travels := n.transit(h.AS, v, pkt); travels {
		n.carry(h.AS, v, pkt, fault)
	}
	return nil
}

// SendRaw injects pre-serialized bytes — the "raw socket" that
// spoofed-source senders write through. The network writes the bytes it
// carries (the TTL decrement at a border, a fault's bit flip), so it
// sends a copy, and the caller's raw is never written.
func (h *Host) SendRaw(raw []byte) { h.net.inject(h.AS, append([]byte(nil), raw...)) }

// SetDown takes the host offline (or back online): while down, inbound
// packets are dropped as if no host owned the address — the churn the
// paper discusses in §3.6.2.
func (h *Host) SetDown(down bool) { h.down = down }

// deliver dispatches an accepted packet to the matching socket.
// crossedBorder records whether the packet entered the host's AS from
// outside (the fact the invariant checker needs to re-assert border
// policy on every delivery).
func (h *Host) deliver(pkt *packet.Packet, crossedBorder bool) {
	if h.down {
		h.net.drop(DropNoHost, pkt, h.AS)
		return
	}
	switch {
	case pkt.UDP != nil:
		fn := h.udp[pkt.UDP.DstPort]
		if fn == nil {
			h.net.drop(DropNoListener, pkt, h.AS)
			return
		}
		h.net.delivered++
		h.net.traceDelivery(pkt, h.AS, crossedBorder)
		fn(h.net.Q.Now(), pkt.Src(), pkt.UDP.SrcPort, pkt.Dst(), pkt.UDP.DstPort, pkt.Data)
	case pkt.TCP != nil:
		h.deliverTCP(pkt, crossedBorder)
	default:
		h.net.drop(DropNoListener, pkt, h.AS)
	}
}
