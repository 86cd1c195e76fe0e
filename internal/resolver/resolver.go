// Package resolver implements the recursive DNS resolvers that populate
// the simulated Internet.
//
// A resolver's policy follows from its Config and root hints: the ACL
// admits or refuses each client query, the cache is always there, QNAME
// minimization (RFC 7816) and iteration apply only with root hints, and
// forwarding only when Forward lists upstreams. Each resolution step
// tries a cache hit, then forwarding, then iteration, in that fixed
// order, and ends in SERVFAIL when none applies (DESIGN.md §11). Around
// that policy sits the event-driven mechanism: upstream I/O (UDP
// retransmission, TCP retry on truncation) and transaction and port
// bookkeeping.
//
// The package's behaviour is pinned by a differential conformance
// harness against internal/resolver/monolith, a frozen copy of an
// earlier implementation with the same Config fields: every cell of
// its query × config × fault matrix emits bit-identical events
// (packets, RNG draws, cache-observer traces) through both.
package resolver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/detrand"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// Salt constants for the resolver's detrand domains (band 61+; the
// saltbands analyzer in internal/lint registers every `salt* = N +
// iota` block and rejects overlaps between packages). The frozen
// monolith snapshot (internal/resolver/monolith) keys its stream on the
// same value 61 — deliberately, and deliberately without registering a
// second band — so the two implementations draw identical streams.
const (
	// saltStream keys the resolver's per-instance draw stream (txn
	// IDs, 0x20 case bits, server selection) on its configured seed.
	saltStream = 61 + iota
)

// ACL is a resolver's client access policy. The paper's "closed"
// resolvers are ACLs restricted to prefixes the operator trusts —
// typically prefixes of the resolver's own network, which is exactly
// what spoofed-internal sources defeat when DSAV is absent (§5.1).
type ACL struct {
	// Open accepts any client.
	Open bool
	// Allowed lists client prefixes accepted when not Open.
	Allowed []netip.Prefix
}

// Allows reports whether a client source address is accepted.
//
//doors:hotpath
func (a ACL) Allows(src netip.Addr) bool {
	if a.Open {
		return true
	}
	for _, p := range a.Allowed {
		if p.Contains(src) {
			return true
		}
	}
	return false
}

// Config parameterizes a resolver.
type Config struct {
	// ACL is the client access policy.
	ACL ACL
	// Ports allocates source ports for outgoing queries.
	Ports PortAllocator
	// Forward, when non-empty, lists upstream resolvers to forward to
	// instead of recursing; one is drawn per query.
	Forward []netip.Addr
	// ForwardFraction is the fraction of queries forwarded when Forward
	// is set (1.0 = pure forwarder; intermediate values model the
	// mixed-behaviour targets of §5.4). Selection is by query-name hash,
	// so it is deterministic.
	ForwardFraction float64
	// QnameMin enables RFC 7816 QNAME minimization.
	QnameMin bool
	// QnameMinLenient, with QnameMin, retries with the full query name
	// when a minimized query yields NXDOMAIN instead of halting (the
	// implementation split observed in §3.6.4).
	QnameMinLenient bool
	// Timeout is the per-attempt upstream timeout (default 2s).
	Timeout time.Duration
	// Retries is the number of retransmissions after the first attempt
	// (default 2).
	Retries int
	// MaxSteps bounds resolution work per client query (default 40).
	// It is the job's depth budget: every resolution step spends one
	// unit, and an exhausted budget ends the job with SERVFAIL.
	MaxSteps int
	// Use0x20 randomizes query-name letter case on upstream queries
	// (draft-vixie-dnsext-dns0x20): responses whose question does not
	// echo the exact case are rejected, adding ~1 bit of anti-spoofing
	// entropy per letter on top of the port and transaction ID.
	Use0x20 bool
	// Seed seeds the resolver's private RNG (transaction IDs, server
	// selection, port randomness).
	Seed int64
	// CacheObserver, when set, receives cache put/serve/flush events —
	// the hook the world's invariant checker uses to assert TTL safety
	// under churn and crash.
	CacheObserver CacheObserver
}

// Stats counts resolver activity.
type Stats struct {
	ClientQueries   uint64
	Refused         uint64
	Responded       uint64
	UpstreamQueries uint64
	UpstreamTCP     uint64
	Forwarded       uint64
	Timeouts        uint64
	ServFail        uint64
	Crashes         uint64
}

// Resolver is a recursive DNS resolver (or forwarder) bound to a
// simulated host on UDP port 53.
type Resolver struct {
	Host  *netsim.Host
	Roots []netip.Addr
	Stats Stats

	cfg     Config
	qmin    bool // QNAME minimization applies: QnameMin with root hints to iterate from
	rng     *rand.Rand
	cache   *cache
	pending map[pendKey]*outstanding
	portRef map[uint16]int
}

type pendKey struct {
	port uint16
	id   uint16
}

// outstanding is one in-flight upstream query.
type outstanding struct {
	job      *job
	key      pendKey
	server   netip.Addr
	qname    dnswire.Name
	wireName dnswire.Name // case-randomized form when 0x20 is enabled
	qtype    dnswire.Type
	attempt  int
	rd       bool // recursive (forwarded) rather than iterative
	done     bool
}

// job is one client query being resolved.
type job struct {
	client     netip.Addr
	clientPort uint16
	local      netip.Addr
	id         uint16
	rd         bool
	qname      dnswire.Name
	qtype      dnswire.Type

	depth        int  // remaining resolution steps (MaxSteps budget)
	minConfirmed int  // labels proven to exist (QNAME minimization)
	fullFallback bool // lenient qmin switched to full-name queries
	finished     bool
}

// New binds a resolver to host. roots are the root server addresses
// (root hints).
func New(host *netsim.Host, roots []netip.Addr, cfg Config) (*Resolver, error) {
	if cfg.Ports == nil {
		return nil, fmt.Errorf("resolver: %s: nil port allocator", host.Name)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 40
	}
	if len(roots) == 0 && len(cfg.Forward) == 0 {
		return nil, fmt.Errorf("resolver: %s: no root hints and no forwarders", host.Name)
	}
	r := &Resolver{
		Host: host, Roots: roots, cfg: cfg,
		qmin:    cfg.QnameMin && len(roots) > 0,
		rng:     detrand.Rand(uint64(cfg.Seed), saltStream),
		cache:   newCache(host.Network().Now),
		pending: make(map[pendKey]*outstanding),
		portRef: make(map[uint16]int),
	}
	if len(host.Addrs) > 0 {
		r.cache.owner = host.Addrs[0]
	}
	r.cache.obs = cfg.CacheObserver
	if err := host.BindUDP(53, r.dispatch); err != nil {
		return nil, err
	}
	r.portRef[53] = 1 // never unbound
	return r, nil
}

// Config returns the resolver's configuration.
func (r *Resolver) Config() Config { return r.cfg }

// dispatch routes every received UDP datagram: responses to pending
// upstream queries by (port, id); everything else is a client query.
// This sharing is what lets fixed-port-53 resolvers work: their upstream
// source port is the service port.
func (r *Resolver) dispatch(now time.Duration, src netip.Addr, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) {
	msg, err := dnswire.Unpack(payload)
	if err != nil {
		return
	}
	if msg.QR {
		key := pendKey{port: dstPort, id: msg.ID}
		out, ok := r.pending[key]
		if !ok || out.done || out.server != src || !msg.Q().Name.Equal(out.qname) {
			return
		}
		if r.cfg.Use0x20 && string(msg.Q().Name) != string(out.wireName) {
			return // 0x20: echoed case mismatch — forged response
		}
		out.done = true
		delete(r.pending, key)
		r.releasePort(dstPort)
		r.onResponse(out, msg, false)
		return
	}
	r.HandleQuery(now, src, srcPort, dst, payload)
}

// HandleQuery processes a client query datagram addressed to local. It
// is exported so transparent middleboxes can inject intercepted queries.
func (r *Resolver) HandleQuery(now time.Duration, src netip.Addr, srcPort uint16, local netip.Addr, payload []byte) {
	msg, err := dnswire.Unpack(payload)
	if err != nil || msg.QR || len(msg.Question) == 0 || msg.OpCode != dnswire.OpQuery {
		return
	}
	r.Stats.ClientQueries++
	q := msg.Q()
	if !r.cfg.ACL.Allows(src) {
		r.Stats.Refused++
		rep := msg.Reply()
		rep.RCode = dnswire.RCodeRefused
		r.reply(src, srcPort, local, rep)
		return
	}
	j := &job{
		client: src, clientPort: srcPort, local: local,
		id: msg.ID, rd: msg.RD, qname: q.Name, qtype: q.Type,
		depth: r.cfg.MaxSteps,
	}
	r.step(j)
}

// reply sends a response message to a client.
func (r *Resolver) reply(client netip.Addr, clientPort uint16, local netip.Addr, msg *dnswire.Message) {
	msg.RA = true
	out, err := msg.Pack()
	if err != nil {
		return
	}
	r.Host.SendUDP(local, 53, client, clientPort, out)
}

// finish responds to the job's client and marks it complete.
func (r *Resolver) finish(j *job, rcode dnswire.RCode, answers []dnswire.RR) {
	if j.finished {
		return
	}
	j.finished = true
	r.Stats.Responded++
	if rcode == dnswire.RCodeServFail {
		r.Stats.ServFail++
	}
	rep := &dnswire.Message{ID: j.id, QR: true, RD: j.rd, RCode: rcode}
	rep.Question = []dnswire.Question{{Name: j.qname, Type: j.qtype, Class: dnswire.ClassIN}}
	rep.Answer = answers
	r.reply(j.client, j.clientPort, j.local, rep)
}

// step advances j by one resolution step, spending one unit of its
// depth budget; an exhausted budget ends the job with SERVFAIL.
func (r *Resolver) step(j *job) {
	if j.finished {
		return
	}
	j.depth--
	if j.depth < 0 {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	r.resolve(j)
}

// resolve takes the first step that applies, in a fixed order: serve a
// cache hit, forward (when upstreams are set and the name falls inside
// ForwardFraction), iterate (when there are root hints), or else fail
// with SERVFAIL.
func (r *Resolver) resolve(j *job) {
	switch rrs, hit := r.cache.getPositive(j.qname, j.qtype); {
	case hit:
		r.finish(j, dnswire.RCodeNoError, rrs)
	case r.cache.getNegative(j.qname):
		r.finish(j, dnswire.RCodeNXDomain, nil)
	case r.shouldForward(j.qname):
		up := r.cfg.Forward[r.rng.Intn(len(r.cfg.Forward))]
		r.Stats.Forwarded++
		r.sendUpstream(j, up, j.qname, j.qtype, true)
	case len(r.Roots) > 0:
		r.iterate(j)
	default:
		r.finish(j, dnswire.RCodeServFail, nil)
	}
}

// shouldForward applies the forwarding policy for a query name.
func (r *Resolver) shouldForward(name dnswire.Name) bool {
	if len(r.cfg.Forward) == 0 {
		return false
	}
	if r.cfg.ForwardFraction >= 1 || r.cfg.ForwardFraction == 0 {
		return true // Forward set: default is a pure forwarder
	}
	h := fnv.New32a()
	h.Write([]byte(name.Canonical()))
	return float64(h.Sum32()%1000) < r.cfg.ForwardFraction*1000
}

// iterate sends j's next iterative query to the closest cached
// delegation's servers, or to the root hints.
func (r *Resolver) iterate(j *job) {
	zone := dnswire.Root
	servers := r.Roots
	if d, ok := r.cache.closestDelegation(j.qname); ok {
		zone, servers = d.apex, d.addrs
	}
	qname, qtype := j.qname, j.qtype
	if r.qmin {
		qname, qtype = minimized(j, zone)
	}
	server, ok := r.pickServer(servers)
	if !ok {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	r.sendUpstream(j, server, qname, qtype, false)
}

// minimized is the question QNAME minimization sends to zone's servers:
// one label beyond what is already proven, as TypeNS, until the full
// name is reached (or the job fell back to full-name queries).
func minimized(j *job, zone dnswire.Name) (dnswire.Name, dnswire.Type) {
	if j.fullFallback {
		return j.qname, j.qtype
	}
	base := zone.CountLabels()
	if j.minConfirmed > base {
		base = j.minConfirmed
	}
	if base+1 < j.qname.CountLabels() {
		return suffixLabels(j.qname, base+1), dnswire.TypeNS
	}
	return j.qname, j.qtype
}

// suffixLabels returns the last k labels of name.
func suffixLabels(name dnswire.Name, k int) dnswire.Name {
	labels := name.Labels()
	if k >= len(labels) {
		return name
	}
	return dnswire.NewName(labels[len(labels)-k:]...)
}

// pickServer chooses a server address reachable from the host's address
// families.
func (r *Resolver) pickServer(servers []netip.Addr) (netip.Addr, bool) {
	var usable []netip.Addr
	for _, s := range servers {
		if r.Host.Addr(s.Is6()).IsValid() {
			usable = append(usable, s)
		}
	}
	if len(usable) == 0 {
		return netip.Addr{}, false
	}
	return usable[r.rng.Intn(len(usable))], true
}

func (r *Resolver) bindPort(port uint16) bool {
	if r.portRef[port] == 0 {
		if err := r.Host.BindUDP(port, r.dispatch); err != nil {
			return false
		}
	}
	r.portRef[port]++
	return true
}

func (r *Resolver) releasePort(port uint16) {
	r.portRef[port]--
	if r.portRef[port] <= 0 {
		delete(r.portRef, port)
		r.Host.UnbindUDP(port)
	}
}

// newKey draws a transaction ID for port that no pending query holds,
// redrawing up to eight times on a clash; ok is false when every draw
// clashed.
func (r *Resolver) newKey(port uint16) (key pendKey, ok bool) {
	key = pendKey{port: port, id: uint16(r.rng.Intn(65536))}
	for tries := 0; tries < 8; tries++ {
		if _, clash := r.pending[key]; !clash {
			return key, true
		}
		key.id = uint16(r.rng.Intn(65536))
	}
	_, clash := r.pending[key]
	return key, !clash
}

// sendUpstream issues one upstream query attempt (recursive when rd is
// set — forwarding — otherwise iterative) and schedules its timeout.
func (r *Resolver) sendUpstream(j *job, server netip.Addr, qname dnswire.Name, qtype dnswire.Type, rd bool) {
	local := r.Host.Addr(server.Is6())
	if !local.IsValid() {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	key, ok := r.newKey(r.cfg.Ports.Next())
	if !ok || !r.bindPort(key.port) {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}

	wireName := qname
	if r.cfg.Use0x20 {
		wireName = randomizeCase(qname, r.rng)
	}
	q := dnswire.NewQuery(key.id, wireName, qtype)
	q.RD = rd
	q.SetEDNS(dnswire.DefaultEDNSSize)
	payload, err := q.Pack()
	if err != nil {
		r.releasePort(key.port)
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	out := &outstanding{job: j, key: key, server: server, qname: qname, wireName: wireName, qtype: qtype, rd: rd}
	r.pending[key] = out
	r.Stats.UpstreamQueries++
	r.Host.SendUDP(local, key.port, server, 53, payload)
	r.armTimeout(out)
}

// retransmit re-issues an attempt with a fresh port and transaction ID.
func (r *Resolver) retransmit(out *outstanding) {
	j := out.job
	if j.finished {
		return
	}
	key, ok := r.newKey(r.cfg.Ports.Next())
	if !ok || !r.bindPort(key.port) {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	out.wireName = out.qname
	if r.cfg.Use0x20 {
		out.wireName = randomizeCase(out.qname, r.rng)
	}
	q := dnswire.NewQuery(key.id, out.wireName, out.qtype)
	q.RD = out.rd
	payload, err := q.Pack()
	if err != nil {
		r.releasePort(key.port)
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	out.key = key
	r.pending[key] = out
	r.Stats.UpstreamQueries++
	local := r.Host.Addr(out.server.Is6())
	r.Host.SendUDP(local, key.port, out.server, 53, payload)
	r.armTimeout(out)
}

// armTimeout schedules out's timeout: an attempt still unanswered is
// abandoned, then retransmitted while retries remain, and its job ends
// in SERVFAIL once they are spent.
func (r *Resolver) armTimeout(out *outstanding) {
	r.Host.Network().Q.After(r.cfg.Timeout, func(now time.Duration) {
		if out.done {
			return
		}
		out.done = true
		delete(r.pending, out.key)
		r.releasePort(out.key.port)
		r.Stats.Timeouts++
		if out.attempt < r.cfg.Retries {
			r.retransmit(&outstanding{job: out.job, server: out.server, qname: out.qname, qtype: out.qtype, attempt: out.attempt + 1, rd: out.rd})
			return
		}
		r.finish(out.job, dnswire.RCodeServFail, nil)
	})
}

// onResponse processes an upstream response (UDP or TCP).
func (r *Resolver) onResponse(out *outstanding, msg *dnswire.Message, viaTCP bool) {
	j := out.job
	if j.finished {
		return
	}

	// Truncated: retry the same query over TCP (RFC 7766), the behaviour
	// the experiment's TC follow-up elicits to capture a SYN (§3.5).
	if msg.TC && !viaTCP {
		r.queryTCP(out)
		return
	}

	switch {
	case msg.RCode == dnswire.RCodeNXDomain:
		if r.qmin && r.cfg.QnameMinLenient && !j.fullFallback && !out.qname.Equal(j.qname) {
			// A lenient implementation distrusts an intermediate
			// NXDOMAIN: it neither caches it nor halts, and retries with
			// the full name (RFC 7816 fallback). A strict one caches it
			// per RFC 8020 and halts (§3.6.4's 55%), like any NXDOMAIN.
			j.fullFallback = true
			r.step(j)
			return
		}
		r.cache.putNegative(out.qname, negativeTTL(msg))
		r.finish(j, dnswire.RCodeNXDomain, nil)

	case len(msg.Answer) > 0:
		ttl := msg.Answer[0].TTL
		r.cache.putPositive(out.qname, out.qtype, msg.Answer, ttl)
		if out.qname.Equal(j.qname) && out.qtype == j.qtype {
			r.finish(j, dnswire.RCodeNoError, msg.Answer)
			return
		}
		// Intermediate (minimized) answer: the name exists, descend.
		j.minConfirmed = out.qname.CountLabels()
		r.step(j)

	case isReferral(msg, out.qname):
		apex, addrs, ttl := referralInfo(msg)
		if len(addrs) == 0 {
			r.finish(j, dnswire.RCodeServFail, nil)
			return
		}
		r.cache.putDelegation(apex, addrs, ttl)
		r.step(j)

	case msg.RCode == dnswire.RCodeNoError:
		// NODATA: the name exists but has no records of this type. For
		// a minimized query that proves the labels so far: descend.
		if r.qmin && !j.fullFallback && !out.qname.Equal(j.qname) {
			j.minConfirmed = out.qname.CountLabels()
			r.step(j)
			return
		}
		r.finish(j, dnswire.RCodeNoError, nil)

	default:
		r.finish(j, dnswire.RCodeServFail, nil)
	}
}

// queryTCP re-issues out's query over TCP after a truncated UDP reply.
func (r *Resolver) queryTCP(out *outstanding) {
	j := out.job
	local := r.Host.Addr(out.server.Is6())
	port := r.cfg.Ports.Next()
	id := uint16(r.rng.Intn(65536))
	q := dnswire.NewQuery(id, out.qname, out.qtype)
	payload, err := q.Pack()
	if err != nil {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	framed := make([]byte, 2+len(payload))
	binary.BigEndian.PutUint16(framed, uint16(len(payload)))
	copy(framed[2:], payload)

	r.Stats.UpstreamTCP++
	var buf []byte
	responded := false
	_, err = r.Host.DialTCP(local, port, out.server, 53, func(c *netsim.TCPConn) {
		c.OnData = func(now time.Duration, data []byte) {
			buf = append(buf, data...)
			if len(buf) < 2 {
				return
			}
			n := int(binary.BigEndian.Uint16(buf[:2]))
			if len(buf) < 2+n {
				return
			}
			resp, err := dnswire.Unpack(buf[2 : 2+n])
			c.Close()
			if err != nil || responded {
				return
			}
			responded = true
			r.onResponse(out, resp, true)
		}
		c.Send(framed)
	})
	if err != nil {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	r.Host.Network().Q.After(r.cfg.Timeout*time.Duration(1+r.cfg.Retries), func(time.Duration) {
		if !responded && !j.finished {
			responded = true
			r.finish(j, dnswire.RCodeServFail, nil)
		}
	})
}

// isReferral reports whether msg is a downward referral for qname.
func isReferral(msg *dnswire.Message, qname dnswire.Name) bool {
	if msg.RCode != dnswire.RCodeNoError || len(msg.Answer) > 0 {
		return false
	}
	for _, rr := range msg.Authority {
		if rr.Type == dnswire.TypeNS && qname.IsSubdomainOf(rr.Name) {
			return true
		}
	}
	return false
}

// referralInfo extracts the delegation apex, glued server addresses, and
// TTL from a referral.
func referralInfo(msg *dnswire.Message) (dnswire.Name, []netip.Addr, uint32) {
	var apex dnswire.Name
	var ttl uint32 = 300
	nsNames := make(map[dnswire.Name]bool)
	for _, rr := range msg.Authority {
		if rr.Type == dnswire.TypeNS {
			apex = rr.Name
			ttl = rr.TTL
			nsNames[rr.Target.Canonical()] = true
		}
	}
	var addrs []netip.Addr
	for _, rr := range msg.Additional {
		if (rr.Type == dnswire.TypeA || rr.Type == dnswire.TypeAAAA) && nsNames[rr.Name.Canonical()] {
			addrs = append(addrs, rr.Addr)
		}
	}
	return apex, addrs, ttl
}

// negativeTTL extracts the negative-caching TTL from the SOA minimum
// (RFC 2308), defaulting to 300s.
func negativeTTL(msg *dnswire.Message) uint32 {
	for _, rr := range msg.Authority {
		if rr.Type == dnswire.TypeSOA && rr.SOA != nil {
			ttl := rr.SOA.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			return ttl
		}
	}
	return 300
}

// CachedAnswer exposes the positive cache for inspection — used by the
// attack simulator's verification step and by tests.
func (r *Resolver) CachedAnswer(name dnswire.Name, typ dnswire.Type) ([]dnswire.RR, bool) {
	return r.cache.getPositive(name, typ)
}

// Crash simulates a process crash and immediate restart: the cache is
// flushed, every in-flight upstream query is abandoned (its response,
// if it arrives, no longer matches any pending state), and ephemeral
// ports are released. Clients whose queries were in flight simply never
// hear back — exactly what a restarted resolver looks like from
// outside. The port-53 service binding survives because the supervisor
// restarts the process instantly in virtual time.
func (r *Resolver) Crash(now time.Duration) {
	r.Stats.Crashes++
	r.cache.flush()
	for key, out := range r.pending {
		out.done = true
		delete(r.pending, key)
		r.releasePort(key.port)
	}
}

// randomizeCase flips each letter of name to a random case (DNS 0x20).
func randomizeCase(name dnswire.Name, rng *rand.Rand) dnswire.Name {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z':
			if rng.Intn(2) == 1 {
				b[i] = c - 'a' + 'A'
			}
		case c >= 'A' && c <= 'Z':
			if rng.Intn(2) == 1 {
				b[i] = c - 'A' + 'a'
			}
		}
	}
	return dnswire.Name(b)
}
