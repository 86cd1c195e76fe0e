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
// raw socket would produce. The one exception is a datagram nobody
// reads: when its drop depends on its addresses alone (loopback
// destination, OSAV, no route, TTL, bogon source, DSAV, no host) and no
// socket, drop hook, tracer, loss draw or fault hook will read it, it is
// counted under the same drop reason without a datagram of its own, or
// without an arrival event when it arrived as bytes. A tracer turns the
// exception off, so a traced network is the reference path.
//
// Every other datagram travels on a flight record, the one thing a
// Network recycles: Host.SendUDP writes a UDP datagram on the record's
// own Packet and bytes, and inject (raw sends and TCP) points one at the
// bytes and Packet it decoded. The record goes back when the journey
// ends: once arrive has run its handler, middlebox or drop, or once
// transit has counted a drop and shown it to any drop hook. So a
// handler's payload and a hook's Packet are valid only during the call. A duplicate's second copy gets bytes of its own and decodes
// into a Packet of its own, so a server that keeps a TCP SYN never holds
// recycled storage.
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
	numDropReasons
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
// packet. pkt, and the bytes it holds, are valid only during the call,
// as a UDPHandler's payload is. A middlebox copies what it keeps; it may
// send.
type Interceptor func(now time.Duration, pkt *packet.Packet) bool

// DropHook observes the packets dropped on their way into one AS (used
// to model IDS logging and the resulting delayed "human analyst"
// queries of §3.6.3). pkt, and the bytes it holds, are valid only
// during the call: a dropped UDP datagram goes back to the network
// when the hook returns. A hook copies what it keeps; it may send.
type DropHook func(now time.Duration, reason DropReason, pkt *packet.Packet, dstAS *routing.AS)

// DeliveryHook observes every packet accepted by a socket (or consumed
// by a transparent middlebox), with the border-crossing fact the
// ingress filters saw — the observation point the simulation invariant
// checker (internal/world.Invariants) attaches to. pkt, and the bytes
// it holds, are valid only during the call, as a UDPHandler's payload
// is. A hook copies what it keeps.
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
// fold is detrand.FoldBytes of the packet's pre-transit bytes, the fold
// the loss draw took, so detrand.Mix(seed, fold) is
// detrand.HashBytes(seed, pkt.Raw) without a second pass over the
// bytes. pkt, and the bytes in pkt.Raw, are valid only during the call:
// SendUDP writes a datagram on a record the Network recycles, and a
// datagram its addresses doom goes back as soon as the draws are done.
// A hook copies what it keeps, and sends nothing.
type FaultHook func(now time.Duration, fold uint64, pkt *packet.Packet, srcAS, dstAS *routing.AS) TransitFault

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
	dropHooks    map[routing.ASN]DropHook
	deliveryHook DeliveryHook
	faults       FaultHook
	drops        [numDropReasons]uint64
	delivered    uint64
	tracer       *Tracer
	// flights holds the records whose journeys have ended, for the next
	// datagrams to travel on.
	flights []*flight
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
		dropHooks:    make(map[routing.ASN]DropHook),
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.Q.Now() }

// Run drains the event queue.
func (n *Network) Run() time.Duration { return n.Q.Run() }

// RunFor advances virtual time by d.
func (n *Network) RunFor(d time.Duration) time.Duration { return n.Q.RunFor(d) }

// Drops returns the per-reason drop counters, for every reason that
// dropped a packet.
func (n *Network) Drops() map[DropReason]uint64 {
	out := make(map[DropReason]uint64)
	for r, v := range n.drops {
		if v != 0 {
			out[DropReason(r)] = v
		}
	}
	return out
}

// Delivered reports how many packets reached a socket.
func (n *Network) Delivered() uint64 { return n.delivered }

// SetInterceptor installs a transparent middlebox for an AS. Call it
// before any traffic: a datagram in flight was judged without it.
func (n *Network) SetInterceptor(asn routing.ASN, f Interceptor) { n.interceptors[asn] = f }

// SetDropHook installs an observer for the packets dropped on their way
// into AS asn; it runs when and where each drop happens, with the
// packet. Drops before the route lookup (OSAV, no route) have no
// destination AS and reach no hook. Call it before any traffic: a
// datagram in flight may already have been counted without its packet.
func (n *Network) SetDropHook(asn routing.ASN, h DropHook) { n.dropHooks[asn] = h }

// SetDeliveryHook installs an observer for delivered packets.
func (n *Network) SetDeliveryHook(h DeliveryHook) { n.deliveryHook = h }

// SetFaultHook installs a deterministic fault-injection layer.
func (n *Network) SetFaultHook(h FaultHook) { n.faults = h }

// HostAt returns the host bound to addr, or nil.
func (n *Network) HostAt(addr netip.Addr) *Host { return n.hosts[addr] }

// Attach creates a host in the given AS bound to the given addresses.
// Hosts attach before any traffic: with events pending it returns an
// error, because a datagram in flight to one of the addresses may
// already have been dropped for having no host.
func (n *Network) Attach(name string, as *routing.AS, addrs ...netip.Addr) (*Host, error) {
	if as == nil {
		return nil, fmt.Errorf("netsim: host %q has no AS", name)
	}
	if pending := n.Q.Len(); pending > 0 {
		return nil, fmt.Errorf("netsim: host %q attached with %d events pending; attach hosts before any traffic", name, pending)
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
	if dstAS != nil {
		if h := n.dropHooks[dstAS.ASN]; h != nil {
			h(n.Q.Now(), reason, pkt, dstAS)
		}
	}
}

// unwatched reports whether nothing records a drop on the way into
// dstAS (nil before the route lookup): no tracer, and no drop hook on
// the AS.
//
//doors:hotpath
func (n *Network) unwatched(dstAS *routing.AS) bool {
	return n.tracer == nil && (dstAS == nil || n.dropHooks[dstAS.ASN] == nil)
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
// TTL observations are deterministic for a given topology. The hash is
// FNV-1a over both ASNs, big-endian.
//
//doors:hotpath
func pathHops(src, dst routing.ASN) uint8 {
	h := uint32(2166136261)
	for _, b := range [8]byte{
		byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src),
		byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst),
	} {
		h = (h ^ uint32(b)) * 16777619
	}
	return uint8(5 + h%16)
}

// verdict is what a datagram's addresses decide about it.
type verdict struct {
	// drop is the first drop in pipeline order that the addresses and
	// the TTL alone decide, or DropNone.
	drop DropReason
	// dstAS originates the destination; nil for a drop before the route
	// lookup.
	dstAS *routing.AS
	// hops is the transit hop count across the border; 0 within an AS.
	hops uint8
}

// judge runs the checks of the pipeline that read only a datagram's
// addresses and TTL, in pipeline order: loopback destination, OSAV,
// route, then — past the loss and fault draws, which read the bytes and
// run in transit — TTL, bogon source, DSAV, middlebox and host. A
// datagram whose AS has a middlebox, or whose address is bound, gets no
// drop: what happens to it there reads its bytes or the host's state.
// Sending and injecting both judge through it and carry the verdict
// through transit, so the two cannot disagree about a datagram.
//
//doors:hotpath
func (n *Network) judge(origin *routing.AS, src, dst netip.Addr, ttl uint8) verdict {
	if dst.IsLoopback() { // loopback destinations never leave the host
		return verdict{drop: DropNoRoute}
	}
	if origin.OSAV && !origin.Originates(src) { // egress OSAV (BCP 38)
		return verdict{drop: DropOSAV}
	}
	dstAS := n.Registry.OriginOf(dst)
	if dstAS == nil {
		return verdict{drop: DropNoRoute}
	}
	v := verdict{dstAS: dstAS}
	if dstAS != origin {
		v.hops = pathHops(origin.ASN, dstAS.ASN)
		if v.drop = DropTTLExceeded; ttl > v.hops {
			v.drop = ingress(dstAS, src)
		}
		if v.drop != DropNone {
			return v
		}
	}
	if n.interceptors[dstAS.ASN] == nil && n.hosts[dst] == nil {
		v.drop = DropNoHost
	}
	return v
}

// ingress applies dstAS's border filters to a source arriving from
// outside: bogon filtering drops special-purpose sources, and DSAV drops
// a source the AS itself originates.
//
//doors:hotpath
func ingress(dstAS *routing.AS, src netip.Addr) DropReason {
	switch {
	case dstAS.FilterBogons && routing.IsSpecialPurpose(src):
		return DropBogonSource
	case dstAS.DSAV && dstAS.Originates(src):
		return DropDSAV
	}
	return DropNone
}

// inject sends raw bytes from origin into the network. This is the
// "raw socket": the source address inside raw may be anything.
func (n *Network) inject(origin *routing.AS, raw []byte) {
	pkt, err := packet.Decode(raw)
	if err != nil {
		n.drop(DropMalformed, nil, nil)
		return
	}
	v := n.judge(origin, pkt.Src(), pkt.Dst(), pkt.TTL())
	if fault, travels := n.transit(origin, v, pkt); travels {
		f := n.flight()
		f.raw, f.pkt = raw, pkt
		n.carry(origin, v, f, fault)
	}
}

// transit runs the sender's side of the pipeline past judge on the
// datagram pkt describes: the loss draw and the fault hook, both on one
// fold of its bytes, then the TTL; a bogon, DSAV or no-host verdict ends
// the datagram here too, counted once per copy, unless a fault flips a
// bit the receiver's decode must meet or something records the drop. It
// returns the fault and whether the datagram travels on to carry.
// Sending and injecting both run it, so the fault hook is consulted once
// per datagram, whichever way it was sent.
func (n *Network) transit(origin *routing.AS, v verdict, pkt *packet.Packet) (fault TransitFault, travels bool) {
	drop := v.drop
	// Loss and faults hash the packet's own bytes plus send time, so a
	// decision is independent of how many other packets preceded it and
	// a retransmission of identical bytes still gets a fresh draw. No
	// draw consumes a shared stream: a packet's fate is shard-invariant.
	if n.draws(v.dstAS) {
		fold, now := detrand.FoldBytes(pkt.Raw), n.Q.Now()
		if n.cfg.LossRate > 0 && detrand.Float64(detrand.Mix(n.seed, fold), uint64(now), saltLoss) < n.cfg.LossRate {
			drop = DropLoss
		} else if n.faults != nil {
			fault = n.faults(now, fold, pkt, origin, v.dstAS) //lint:allow hotalloc -- the fault layer's seam (chaos.Transit), set only on faulted runs; it reads the datagram and allocates nothing
			if fault.Drop {
				drop = DropChaos
			}
		}
	}
	switch drop {
	case DropNone:
		return fault, true
	case DropBogonSource, DropDSAV, DropNoHost: // decided on arrival
		if fault.Corrupt || !n.unwatched(v.dstAS) {
			return fault, true
		}
		n.drops[drop]++
		if fault.Duplicate {
			n.drops[drop]++
		}
		return fault, false
	}
	n.drop(drop, pkt, v.dstAS) //lint:allow hotalloc -- on an unwatched network a drop is a count; only a tracer or a drop hook, each handed the packet, costs more
	return fault, false
}

// draws reports whether a loss draw or a fault hook reads the bytes of
// a datagram into dstAS (nil before the route lookup, which none reads).
func (n *Network) draws(dstAS *routing.AS) bool {
	return dstAS != nil && (n.cfg.LossRate > 0 || n.faults != nil)
}

// carry moves the datagram on record f, which transit let through, to
// its arrival: the flow's jitter and the fault's delay, the TTL
// decrement at the border and the fault's bit flip, and f's arrival
// event, with a second record for a duplicate. The network owns the
// bytes f holds (SendRaw copies a caller's), so both writes land in
// place; a duplicate's copy gets bytes of its own, since f's go back to
// the network when it lands.
func (n *Network) carry(origin *routing.AS, v verdict, f *flight, fault TransitFault) {
	pkt, raw, dstAS := f.pkt, f.raw, v.dstAS
	crossesBorder := dstAS != origin
	// Jitter hashes the flow identity (addresses + ports), not the packet
	// bytes: every packet of a flow rides the same simulated path, so
	// same-flow packets deliver FIFO (the minimal TCP depends on in-order
	// segments) while distinct flows still spread across [0, JitterMax).
	latency := n.cfg.BaseLatency + fault.ExtraDelay
	if n.cfg.JitterMax > 0 {
		latency += time.Duration(detrand.Mix(n.seed, flowKey(pkt), saltJitter) % uint64(n.cfg.JitterMax))
	}

	// Transit TTL decrement, applied to the serialized packet so the
	// receiver observes a hop-decremented TTL (what p0f sees).
	if crossesBorder {
		decrementTTL(raw, v.hops)
		// pkt now describes the datagram the receiver gets. The fault
		// hook and the drop hooks saw pkt before this update; none of
		// them keeps it.
		if pkt.V4 != nil {
			pkt.V4.TTL -= v.hops
		} else {
			pkt.V6.HopLimit -= v.hops
		}
	}
	if fault.Corrupt {
		bit := fault.CorruptBit % (len(raw) * 8)
		raw[bit/8] ^= 1 << (bit % 8)
		f.pkt = nil // the flipped bit must meet the receiver's decode
	}

	f.dstAS, f.crossedBorder = dstAS, crossesBorder
	n.Q.After(latency, f.fire)
	if fault.Duplicate {
		dup := n.flight()
		dup.raw, dup.dstAS, dup.crossedBorder = append([]byte(nil), raw...), dstAS, crossesBorder
		n.Q.After(latency+fault.DupDelay, dup.fire)
	}
}

// flight carries one datagram: the Packet and bytes SendUDP writes it
// on, arrive's arguments and the arrival event that hands them over.
// The Network recycles a record once its datagram's journey has ended,
// so a datagram in flight costs no object of its own.
type flight struct {
	n   *Network
	own packet.Packet // what SendUDP writes, on own.Raw
	raw []byte
	// pkt is raw decoded: &own, or the Packet inject decoded; nil when
	// arrive must decode raw.
	pkt           *packet.Packet
	dstAS         *routing.AS
	crossedBorder bool
	fire          eventq.Event // run, bound once per record
}

// flight returns a record whose journey has ended, or a new one when
// none is back yet.
func (n *Network) flight() *flight {
	k := len(n.flights)
	if k == 0 {
		f := &flight{n: n}
		f.fire = f.run
		return f
	}
	f := n.flights[k-1]
	n.flights = n.flights[:k-1]
	return f
}

// land takes f back once its datagram's journey has ended, keeping its
// own Packet and bytes for the next datagram SendUDP writes.
func (n *Network) land(f *flight) {
	f.raw, f.pkt, f.dstAS = nil, nil, nil
	n.flights = append(n.flights, f)
}

// run delivers the record's datagram, then takes the record back: the
// handler, middlebox or hook the datagram met read its Packet and bytes
// until arrive returned. A send during the delivery takes another
// record.
func (f *flight) run(time.Duration) {
	f.n.arrive(f.raw, f.pkt, f.dstAS, f.crossedBorder)
	f.n.land(f)
}

// arrive runs the destination-side pipeline: border filters, middlebox
// interception, host lookup, kernel checks, socket demux. pkt is raw as
// SendUDP wrote it or inject decoded it, or nil when raw must be decoded
// here. Transit rewrote at most the TTL or hop limit and the IPv4
// header checksum, so of everything Decode checks only that checksum is
// verified again.
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
		if reason := ingress(dstAS, src); reason != DropNone {
			n.drop(reason, pkt, dstAS)
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

// decrementTTL lowers raw's TTL or hop limit by hops, which judge found
// smaller, and fixes the IPv4 header checksum, in place.
func decrementTTL(raw []byte, hops uint8) {
	switch raw[0] >> 4 {
	case 4:
		raw[8] -= hops
		ihl := int(raw[0]&0x0f) * 4
		raw[10], raw[11] = 0, 0
		sum := packet.Checksum(raw[:ihl])
		raw[10], raw[11] = byte(sum>>8), byte(sum)
	case 6:
		raw[7] -= hops
	}
}
