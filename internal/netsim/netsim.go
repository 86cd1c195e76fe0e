// Package netsim simulates the slice of the Internet the experiment
// exercises: hosts attached to autonomous systems, AS border filtering
// (egress OSAV, ingress DSAV and bogon filtering), transit with latency
// and TTL decrement, kernel-level acceptance of spoofed sources, UDP
// endpoint demux, a minimal TCP implementation sufficient for
// DNS-over-TCP (with fingerprintable SYNs), and transparent DNS
// middleboxes.
//
// Packets on simulated links are real serialized IPv4/IPv6 datagrams
// (internal/packet); every filter and endpoint parses the same bytes a
// raw socket would produce.
//
// Each Network is single-threaded and driven by a virtual-time event
// queue, so a seeded run is fully deterministic. All randomness (jitter,
// loss, TCP ISNs) is derived by hashing the seed with the packet or flow
// identity rather than drawn from a shared sequential stream: a packet's
// fate depends only on its own bytes and virtual send time, never on how
// many other packets happened to cross the simulator first. That
// property is what lets the sharded survey engine split a population
// across several Networks and still produce bit-identical results at any
// shard count.
//
// Concurrency contract: a Network and everything reachable from it —
// hosts, endpoints, TCP state, resolvers bound to its hosts — is
// confined to the goroutine that calls Net.Run, from construction
// until Run returns. Nothing in this package takes a lock, on purpose:
// parallelism lives one level up, where the campaign engine runs one
// Network per shard goroutine and the shards share only read-only
// structures (routing registry, population view). Handing a live
// Network, or any object inside it, to another goroutine is a race;
// the frozenshare/shardcapture/golifetime analyzers and the racestress
// harness enforce the boundary from both sides.
package netsim

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"time"

	"repro/internal/detrand"
	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/routing"
)

// Domain-separation salts for hash-derived randomness (band 1+; the
// saltbands analyzer in internal/lint registers every `salt* = N +
// iota` block and rejects overlaps between packages).
const (
	saltJitter = 1 + iota
	saltLoss
	saltISN
)

// DropReason classifies why the simulator discarded a packet.
type DropReason int

// Drop reasons, in pipeline order.
const (
	DropNone        DropReason = iota
	DropMalformed              // undecodable bytes
	DropOSAV                   // egress: source not in origin AS (BCP 38)
	DropNoRoute                // no announced route to destination
	DropLoss                   // random transit loss
	DropTTLExceeded            // TTL reached zero in transit
	DropBogonSource            // ingress: special-purpose source filtered
	DropDSAV                   // ingress: internal source on external interface
	DropNoHost                 // destination address not bound to a host
	DropKernelSpoof            // kernel refused dst-as-src/loopback source
	DropNoListener             // no socket bound to the destination port
	DropChaos                  // injected fault (link flap, induced loss)
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropMalformed:
		return "malformed"
	case DropOSAV:
		return "osav"
	case DropNoRoute:
		return "no-route"
	case DropLoss:
		return "loss"
	case DropTTLExceeded:
		return "ttl-exceeded"
	case DropBogonSource:
		return "bogon-source"
	case DropDSAV:
		return "dsav"
	case DropNoHost:
		return "no-host"
	case DropKernelSpoof:
		return "kernel-spoof"
	case DropNoListener:
		return "no-listener"
	case DropChaos:
		return "chaos"
	default:
		return fmt.Sprintf("drop(%d)", int(r))
	}
}

// Interceptor is a transparent middlebox hook applied inside an AS after
// border filtering and before host delivery. Returning true consumes the
// packet.
type Interceptor func(now time.Duration, pkt *packet.Packet) bool

// DropHook observes discarded packets (used to model IDS logging and the
// resulting delayed "human analyst" queries of §3.6.3).
type DropHook func(now time.Duration, reason DropReason, pkt *packet.Packet, dstAS *routing.AS)

// DeliveryHook observes every packet accepted by a socket (or consumed
// by a transparent middlebox), with the border-crossing fact the
// ingress filters saw — the observation point the simulation invariant
// checker (internal/world.Invariants) attaches to.
type DeliveryHook func(now time.Duration, pkt *packet.Packet, dstAS *routing.AS, crossedBorder bool)

// TransitFault is a fault layer's verdict for one packet in transit.
// The zero value leaves the packet untouched.
type TransitFault struct {
	// Drop discards the packet (link flap, induced loss).
	Drop bool
	// ExtraDelay adds latency on top of base latency and jitter
	// (reordering relative to other flows, per-AS clock skew).
	ExtraDelay time.Duration
	// Duplicate delivers a second copy of the packet DupDelay after the
	// first.
	Duplicate bool
	DupDelay  time.Duration
	// Corrupt flips bit CorruptBit (mod the packet length) in the
	// delivered bytes; the receiver-side decode then rejects the packet
	// on its transport checksum, as real corruption would surface.
	Corrupt    bool
	CorruptBit int
}

// FaultHook is a deterministic fault-injection layer consulted once per
// injected packet after routing and loss. Implementations must derive
// their verdict from the packet's own identity (bytes, time, ASes) so a
// fault schedule is reproducible at any shard count (internal/chaos).
type FaultHook func(now time.Duration, raw []byte, pkt *packet.Packet, srcAS, dstAS *routing.AS) TransitFault

// Config tunes the simulated transit characteristics.
type Config struct {
	// BaseLatency is the one-way delivery latency floor. Default 10ms.
	BaseLatency time.Duration
	// JitterMax is the maximum extra random latency. Default 20ms.
	JitterMax time.Duration
	// LossRate is the probability a transit packet is lost. Default 0.
	LossRate float64
	// Seed seeds the simulator's internal RNG.
	Seed int64
}

// Network is the simulated Internet.
type Network struct {
	Q        *eventq.Queue
	Registry *routing.Registry

	cfg          Config
	seed         uint64
	hosts        map[netip.Addr]*Host
	interceptors map[routing.ASN]Interceptor
	dropHook     DropHook
	deliveryHook DeliveryHook
	faults       FaultHook
	drops        map[DropReason]uint64
	delivered    uint64
	tracer       *Tracer
}

// New creates a network over the given routing registry.
func New(reg *routing.Registry, cfg Config) *Network {
	if cfg.BaseLatency == 0 {
		cfg.BaseLatency = 10 * time.Millisecond
	}
	if cfg.JitterMax == 0 {
		cfg.JitterMax = 20 * time.Millisecond
	}
	return &Network{
		Q:            eventq.New(),
		Registry:     reg,
		cfg:          cfg,
		seed:         uint64(cfg.Seed),
		hosts:        make(map[netip.Addr]*Host),
		interceptors: make(map[routing.ASN]Interceptor),
		drops:        make(map[DropReason]uint64),
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.Q.Now() }

// Run drains the event queue.
func (n *Network) Run() time.Duration { return n.Q.Run() }

// RunFor advances virtual time by d.
func (n *Network) RunFor(d time.Duration) time.Duration { return n.Q.RunFor(d) }

// Drops returns the per-reason drop counters.
func (n *Network) Drops() map[DropReason]uint64 {
	out := make(map[DropReason]uint64, len(n.drops))
	for k, v := range n.drops {
		out[k] = v
	}
	return out
}

// Delivered reports how many packets reached a socket.
func (n *Network) Delivered() uint64 { return n.delivered }

// SetInterceptor installs a transparent middlebox for an AS.
func (n *Network) SetInterceptor(asn routing.ASN, f Interceptor) { n.interceptors[asn] = f }

// SetDropHook installs an observer for dropped packets.
func (n *Network) SetDropHook(h DropHook) { n.dropHook = h }

// SetDeliveryHook installs an observer for delivered packets.
func (n *Network) SetDeliveryHook(h DeliveryHook) { n.deliveryHook = h }

// SetFaultHook installs a deterministic fault-injection layer.
func (n *Network) SetFaultHook(h FaultHook) { n.faults = h }

// HostAt returns the host bound to addr, or nil.
func (n *Network) HostAt(addr netip.Addr) *Host { return n.hosts[addr] }

// Attach creates a host in the given AS bound to the given addresses.
func (n *Network) Attach(name string, as *routing.AS, addrs ...netip.Addr) (*Host, error) {
	if as == nil {
		return nil, fmt.Errorf("netsim: host %q has no AS", name)
	}
	h := &Host{
		net: n, Name: name, AS: as,
		udp:     make(map[uint16]UDPHandler),
		tcpLst:  make(map[uint16]TCPAccept),
		tcpConn: make(map[tcpKey]*TCPConn),
	}
	for _, a := range addrs {
		if other, taken := n.hosts[a]; taken {
			return nil, fmt.Errorf("netsim: address %v already bound to %q", a, other.Name)
		}
		n.hosts[a] = h
		h.Addrs = append(h.Addrs, a)
	}
	return h, nil
}

func (n *Network) drop(reason DropReason, pkt *packet.Packet, dstAS *routing.AS) {
	n.drops[reason]++
	if n.tracer != nil {
		n.tracer.record(traceEventFor(n.Q.Now(), pkt, false, reason, dstAS))
	}
	if n.dropHook != nil {
		n.dropHook(n.Q.Now(), reason, pkt, dstAS)
	}
}

// traceDelivery records a successful socket delivery and feeds the
// delivery observer (invariant checking).
func (n *Network) traceDelivery(pkt *packet.Packet, dstAS *routing.AS, crossedBorder bool) {
	if n.tracer != nil {
		n.tracer.record(traceEventFor(n.Q.Now(), pkt, true, DropNone, dstAS))
	}
	if n.deliveryHook != nil {
		n.deliveryHook(n.Q.Now(), pkt, dstAS, crossedBorder)
	}
}

// flowKey folds a packet's flow identity (addresses, transport protocol,
// ports) into one hash word for the per-flow jitter draw.
func flowKey(pkt *packet.Packet) uint64 {
	sh, sl := detrand.AddrWords(pkt.Src())
	dh, dl := detrand.AddrWords(pkt.Dst())
	var ports uint64
	switch {
	case pkt.UDP != nil:
		ports = 17<<32 | uint64(pkt.UDP.SrcPort)<<16 | uint64(pkt.UDP.DstPort)
	case pkt.TCP != nil:
		ports = 6<<32 | uint64(pkt.TCP.SrcPort)<<16 | uint64(pkt.TCP.DstPort)
	}
	return detrand.Mix(sh, sl, dh, dl, ports)
}

// pathHops returns a stable per-(srcAS,dstAS) hop count in [5, 20], so
// TTL observations are deterministic for a given topology.
func pathHops(src, dst routing.ASN) uint8 {
	h := fnv.New32a()
	var b [8]byte
	b[0], b[1], b[2], b[3] = byte(src>>24), byte(src>>16), byte(src>>8), byte(src)
	b[4], b[5], b[6], b[7] = byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst)
	h.Write(b[:])
	return uint8(5 + h.Sum32()%16)
}

// inject sends raw bytes from origin into the network. This is the
// "raw socket": the source address inside raw may be anything.
func (n *Network) inject(origin *Host, raw []byte) {
	pkt, err := packet.Decode(raw)
	if err != nil {
		n.drop(DropMalformed, nil, nil)
		return
	}
	src, dst := pkt.Src(), pkt.Dst()

	// Loopback destinations never leave the host.
	if dst.IsLoopback() {
		n.drop(DropNoRoute, pkt, nil)
		return
	}

	// Egress: origin AS applies OSAV (BCP 38) if configured.
	if origin.AS.OSAV && !origin.AS.Originates(src) {
		n.drop(DropOSAV, pkt, nil)
		return
	}

	dstAS := n.Registry.OriginOf(dst)
	if dstAS == nil {
		n.drop(DropNoRoute, pkt, nil)
		return
	}

	crossesBorder := dstAS != origin.AS
	latency := n.cfg.BaseLatency
	// Jitter hashes the flow identity (addresses + ports), not the packet
	// bytes: every packet of a flow rides the same simulated path, so
	// same-flow packets deliver FIFO (the minimal TCP depends on in-order
	// segments) while distinct flows still spread across [0, JitterMax).
	// Loss hashes the packet's own bytes plus send time, so the decision
	// is independent of how many other packets preceded it and a
	// retransmission of identical bytes still gets a fresh draw. Neither
	// draw consumes a shared stream — a packet's fate is shard-invariant.
	if n.cfg.JitterMax > 0 {
		latency += time.Duration(detrand.Mix(n.seed, flowKey(pkt), saltJitter) % uint64(n.cfg.JitterMax))
	}
	if n.cfg.LossRate > 0 &&
		detrand.Float64(detrand.HashBytes(n.seed, raw), uint64(n.Q.Now()), saltLoss) < n.cfg.LossRate {
		n.drop(DropLoss, pkt, dstAS)
		return
	}

	// Fault-injection layer (chaos): the verdict is a pure function of
	// the packet's pre-transit bytes, send time, and endpoint ASes, so
	// injected faults are reproducible at any shard count.
	var fault TransitFault
	if n.faults != nil {
		fault = n.faults(n.Q.Now(), raw, pkt, origin.AS, dstAS)
		if fault.Drop {
			n.drop(DropChaos, pkt, dstAS)
			return
		}
		latency += fault.ExtraDelay
	}

	// Transit TTL decrement, applied to the serialized packet so the
	// receiver observes a hop-decremented TTL (what p0f sees).
	if crossesBorder {
		hops := pathHops(origin.AS.ASN, dstAS.ASN)
		var ok bool
		raw, ok = decrementTTL(raw, hops)
		if !ok {
			n.drop(DropTTLExceeded, pkt, dstAS)
			return
		}
		// pkt now describes the datagram the receiver gets; its payload
		// and TCP option data still alias the pre-transit bytes, which
		// differ from raw only in the IP header. The fault hook and the
		// drop hooks saw pkt before this update; none of them keeps it.
		pkt.Raw = raw
		if pkt.V4 != nil {
			pkt.V4.TTL -= hops
		} else {
			pkt.V6.HopLimit -= hops
		}
	}
	if fault.Corrupt && len(raw) > 0 {
		out := make([]byte, len(raw))
		copy(out, raw)
		bit := fault.CorruptBit % (len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
		raw = out
		pkt = nil // the flipped bit must meet the receiver's decode
	}

	n.Q.After(latency, func(now time.Duration) {
		n.arrive(raw, pkt, dstAS, crossesBorder)
	})
	if fault.Duplicate {
		// The copy decodes into a Packet of its own.
		n.Q.After(latency+fault.DupDelay, func(now time.Duration) {
			n.arrive(raw, nil, dstAS, crossesBorder)
		})
	}
}

// arrive runs the destination-side pipeline: border filters, middlebox
// interception, host lookup, kernel checks, socket demux. pkt is raw as
// inject decoded it, or nil when raw must be decoded here. Transit
// rewrote at most the TTL or hop limit and the IPv4 header checksum,
// so of everything Decode checks only that checksum is verified again.
func (n *Network) arrive(raw []byte, pkt *packet.Packet, dstAS *routing.AS, crossedBorder bool) {
	if pkt == nil {
		var err error
		if pkt, err = packet.Decode(raw); err != nil {
			n.drop(DropMalformed, nil, dstAS)
			return
		}
	} else if pkt.V4 != nil && packet.Checksum(raw[:int(raw[0]&0x0f)*4]) != 0 {
		n.drop(DropMalformed, nil, dstAS)
		return
	}
	src, dst := pkt.Src(), pkt.Dst()

	if crossedBorder {
		// Ingress bogon filtering: special-purpose sources dropped.
		if dstAS.FilterBogons && routing.IsSpecialPurpose(src) {
			n.drop(DropBogonSource, pkt, dstAS)
			return
		}
		// Ingress DSAV: a source address the AS itself originates must
		// not arrive on an external interface.
		if dstAS.DSAV && dstAS.Originates(src) {
			n.drop(DropDSAV, pkt, dstAS)
			return
		}
	}

	if ic := n.interceptors[dstAS.ASN]; ic != nil && ic(n.Q.Now(), pkt) {
		n.delivered++
		n.traceDelivery(pkt, dstAS, crossedBorder)
		return
	}

	host := n.hosts[dst]
	if host == nil {
		n.drop(DropNoHost, pkt, dstAS)
		return
	}

	// Kernel acceptance of spoofed sources (Table 6).
	if host.OS != nil {
		dstAsSrc := src == dst
		loopback := src.IsLoopback()
		if (dstAsSrc || loopback) && !host.OS.AcceptsSpoof(dstAsSrc, loopback && !dstAsSrc, src.Is6()) {
			n.drop(DropKernelSpoof, pkt, dstAS)
			return
		}
	}

	host.deliver(pkt, crossedBorder)
}

// decrementTTL rewrites the TTL/hop-limit field in place, fixing the
// IPv4 header checksum, and reports whether the packet survives.
func decrementTTL(raw []byte, hops uint8) ([]byte, bool) {
	out := make([]byte, len(raw))
	copy(out, raw)
	switch out[0] >> 4 {
	case 4:
		ttl := out[8]
		if ttl <= hops {
			return nil, false
		}
		out[8] = ttl - hops
		// Recompute header checksum.
		ihl := int(out[0]&0x0f) * 4
		out[10], out[11] = 0, 0
		sum := packet.Checksum(out[:ihl])
		out[10], out[11] = byte(sum>>8), byte(sum)
	case 6:
		hl := out[7]
		if hl <= hops {
			return nil, false
		}
		out[7] = hl - hops
	}
	return out, true
}
