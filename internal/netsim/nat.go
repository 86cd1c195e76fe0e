package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/packet"
)

// NATGateway models the consumer NAT boxes that limit the Spoofer
// project's DSAV measurements (§2): hosts behind it have only private
// addresses, outbound flows are rewritten to the gateway's public
// address with per-flow port mappings, and unsolicited inbound traffic
// has nowhere to go. Outbound packets with spoofed sources are
// rewritten like everything else — the NAT "un-spoofs" them, the other
// behaviour Spoofer observes in the wild.
type NATGateway struct {
	host   *Host
	public netip.Addr

	inside   map[netip.Addr]*InsideHost
	mappings map[uint16]natMapping // public port -> inside endpoint
	nextPort uint16
	// RewrittenSpoofs counts outbound packets whose claimed source was
	// not the sender's private address (and was rewritten anyway).
	RewrittenSpoofs uint64
}

type natMapping struct {
	addr netip.Addr
	port uint16
}

// InsideHost is a host on the NAT's private side. It is not attached to
// the global network: all its traffic traverses the gateway.
type InsideHost struct {
	gw   *NATGateway
	Addr netip.Addr
	udp  map[uint16]UDPHandler
}

// NewNATGateway attaches a gateway to the network: host must already be
// attached and own public.
func NewNATGateway(host *Host, public netip.Addr) (*NATGateway, error) {
	if !host.HasAddr(public) {
		return nil, fmt.Errorf("netsim: NAT public address %v not bound to %s", public, host.Name)
	}
	gw := &NATGateway{
		host: host, public: public,
		inside:   make(map[netip.Addr]*InsideHost),
		mappings: make(map[uint16]natMapping),
		nextPort: 20000,
	}
	return gw, nil
}

// Public returns the gateway's public address.
func (gw *NATGateway) Public() netip.Addr { return gw.public }

// Attach creates a host on the private side with the given RFC 1918
// address.
func (gw *NATGateway) Attach(priv netip.Addr) (*InsideHost, error) {
	if !priv.IsPrivate() {
		return nil, fmt.Errorf("netsim: NAT inside address %v is not private", priv)
	}
	if _, dup := gw.inside[priv]; dup {
		return nil, fmt.Errorf("netsim: NAT inside address %v already attached", priv)
	}
	ih := &InsideHost{gw: gw, Addr: priv, udp: make(map[uint16]UDPHandler)}
	gw.inside[priv] = ih
	return ih, nil
}

// BindUDP registers a private-side listener (reachable only through
// established mappings).
func (ih *InsideHost) BindUDP(port uint16, fn UDPHandler) error {
	if _, dup := ih.udp[port]; dup {
		return fmt.Errorf("netsim: inside port %d already bound", port)
	}
	ih.udp[port] = fn
	return nil
}

// SendUDP sends a datagram from the private host through the NAT.
func (ih *InsideHost) SendUDP(srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) error {
	raw, err := packet.BuildUDP(ih.Addr, dst, srcPort, dstPort, 64, payload)
	if err != nil {
		return err
	}
	ih.SendRaw(raw)
	return nil
}

// SendRaw sends raw bytes through the NAT — including spoofed-source
// packets, which the gateway rewrites like any other outbound flow.
func (ih *InsideHost) SendRaw(raw []byte) {
	ih.gw.forwardOut(ih, raw)
}

// forwardOut rewrites an outbound packet to the public address and
// injects it.
func (gw *NATGateway) forwardOut(ih *InsideHost, raw []byte) {
	pkt, err := packet.Decode(raw)
	if err != nil || pkt.UDP == nil {
		return // only UDP is modeled through the NAT
	}
	if pkt.Src() != ih.Addr {
		gw.RewrittenSpoofs++ // spoofed source: rewritten anyway
	}
	pubPort := gw.allocMapping(ih.Addr, pkt.UDP.SrcPort)
	out, err := packet.BuildUDP(gw.public, pkt.Dst(), pubPort, pkt.UDP.DstPort, 64, pkt.Data)
	if err != nil {
		return
	}
	gw.ensureBound(pubPort)
	gw.host.net.inject(gw.host.AS, out)
}

// allocMapping reuses or creates the public port for an inside flow.
func (gw *NATGateway) allocMapping(addr netip.Addr, port uint16) uint16 {
	for pub, m := range gw.mappings {
		if m.addr == addr && m.port == port {
			return pub
		}
	}
	for {
		gw.nextPort++
		if gw.nextPort < 20000 {
			gw.nextPort = 20000
		}
		if _, used := gw.mappings[gw.nextPort]; !used {
			break
		}
	}
	gw.mappings[gw.nextPort] = natMapping{addr: addr, port: port}
	return gw.nextPort
}

// ensureBound installs the public-side listener that translates return
// traffic back to the inside host.
func (gw *NATGateway) ensureBound(pubPort uint16) {
	err := gw.host.BindUDP(pubPort, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		m, ok := gw.mappings[dp]
		if !ok {
			return
		}
		ih, ok := gw.inside[m.addr]
		if !ok {
			return
		}
		if fn := ih.udp[m.port]; fn != nil {
			fn(now, src, sp, m.addr, m.port, payload)
		}
	})
	_ = err // already bound: the mapping is reused
}
