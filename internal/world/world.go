// Package world instantiates a simulated Internet (netsim) from a
// synthetic DITL population (ditl): the DNS infrastructure (root, org,
// and the experimenter's dns-lab.org servers with their transport- and
// truncation-probing subzones), public DNS services, the spoofing-capable
// scanner vantage point, and every live resolver with its ACL, OS,
// forwarding, and port-allocation configuration — plus the measurement
// hazards the paper accounts for: transparent DNS middleboxes (§3.6.1)
// and IDS-triggered human analyst queries (§3.6.3).
package world

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/authserver"
	"repro/internal/chaos"
	"repro/internal/detrand"
	"repro/internal/ditl"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/resolver"
	"repro/internal/routing"
)

// Domain-separation salts for hash-derived randomness (band 21+; the
// saltbands analyzer in internal/lint registers every `salt* = N +
// iota` block and rejects overlaps, so widening this band past the
// chaos block at 41 is a compile-gated offence).
const (
	saltIDSSample = 21 + iota
	saltIDSDelay
	saltIDSTxn
	saltChurn
	saltChurnAt
	saltPubSeed
	saltPubPorts
	saltThirdSeed
	saltThirdPorts
	saltGlobalPubSeed
	saltGlobalPubPorts
	saltACLSubnets
	saltMboxAddr
	saltMboxPorts
	saltMboxSeed
	saltAnalystAddr
)

// Infrastructure addressing, far from the ditl block allocator's range.
var (
	infraPrefix4   = netip.MustParsePrefix("223.255.0.0/16")
	infraPrefix6   = netip.MustParsePrefix("2a01:0:1::/48")
	scannerPrefix4 = netip.MustParsePrefix("223.254.0.0/16")
	scannerPrefix6 = netip.MustParsePrefix("2a01:0:2::/48")
	publicPrefix4  = netip.MustParsePrefix("223.253.0.0/16")
	publicPrefix6  = netip.MustParsePrefix("2a01:0:3::/48")
	thirdPrefix4   = netip.MustParsePrefix("223.252.0.0/16")
)

// Zone is the experiment's base zone.
const Zone = dnswire.Name("dns-lab.org")

// Subzone apexes for the follow-up probes (§3.5).
const (
	ZoneV4 = dnswire.Name("v4.dns-lab.org") // IPv4-only delegation
	ZoneV6 = dnswire.Name("v6.dns-lab.org") // IPv6-only delegation
	ZoneTC = dnswire.Name("tc.dns-lab.org") // always-truncate (TCP probe)
)

// Options tunes world construction.
type Options struct {
	// Seed drives simulator randomness (latency jitter, resolver server
	// selection independence from population generation).
	Seed int64
	// LossRate is transit packet loss (default 0: deterministic runs).
	LossRate float64
	// Wildcard serves wildcard answers from dns-lab.org instead of
	// NXDOMAIN (the §3.6.4 fix; used by the ablation bench).
	Wildcard bool
	// AllDSAV forces DSAV on in every target AS (counterfactual
	// ablation: which vulnerable resolvers would have been protected).
	AllDSAV bool
	// NoDSAV forces DSAV off everywhere.
	NoDSAV bool
	// Invariants attaches an always-on invariant checker to the world:
	// every delivered packet is re-checked against border policy and DNS
	// transaction-ID conservation, and every resolver cache event against
	// TTL and crash-flush safety. Read the result from World.Invariants.
	Invariants bool
}

// World is the built simulation.
type World struct {
	Net *netsim.Network
	Reg *routing.Registry

	// Scanner is the measurement client's host (in an AS without OSAV).
	Scanner      *netsim.Host
	ScannerAddr4 netip.Addr
	ScannerAddr6 netip.Addr

	// Roots are the root server addresses (resolver hints).
	Roots []netip.Addr
	// Auth are the experimenter-controlled authoritative servers whose
	// received queries are the experiment's observations.
	Auth []*authserver.Server
	// MainZone is the dns-lab.org zone (for wildcard toggling).
	MainZone *authserver.Zone
	// PublicDNS lists the shared public resolver service addresses.
	PublicDNS []netip.Addr
	// Resolvers lists the target ASes' resolvers in build order, each
	// once (ground truth for validation).
	Resolvers []*resolver.Resolver
	// Invariants is the world's invariant checker (nil unless
	// Options.Invariants was set).
	Invariants *Invariants

	rootZone *authserver.Zone
	// ids is the IDS drop hooks' decode storage. A hook never runs
	// inside another hook and keeps only the name it decodes.
	ids dnswire.Message

	seed              uint64
	publicAS, thirdAS *routing.AS
	asPublic          map[routing.ASN][]netip.Addr
	asThird           map[routing.ASN]netip.Addr
}

// ScheduleChurn takes a seeded fraction of resolver hosts offline at
// uniformly random points within the experiment window — the address
// churn of §3.6.2 that makes per-source effectiveness a lower bound.
// Call after the scanner's probes are scheduled, with the experiment
// duration.
func (w *World) ScheduleChurn(fraction float64, duration time.Duration, seed int64) int {
	if fraction <= 0 || duration <= 0 {
		return 0
	}
	// Decisions are keyed on each host's identity (its first bound
	// address), not drawn from a sequential stream, so the churn set and
	// times are independent of which survey shard the host lives in.
	churned := 0
	for _, res := range w.Resolvers {
		h := res.Host
		hi, lo := detrand.AddrWords(h.Addrs[0])
		if detrand.Float64(uint64(seed), hi, lo, saltChurn) >= fraction {
			continue
		}
		at := time.Duration(detrand.Mix(uint64(seed), hi, lo, saltChurnAt) % uint64(duration))
		w.Net.Q.At(at, func(time.Duration) { h.SetDown(true) })
		churned++
	}
	return churned
}

// ResolverStats sums the stats of every target resolver in the world.
// Call it only after Net.Run returns: resolvers are confined to the
// event-loop goroutine while the simulation is live.
func (w *World) ResolverStats() resolver.Stats {
	var total resolver.Stats
	for _, res := range w.Resolvers {
		total.Add(res.Stats)
	}
	return total
}

// ScheduleChaos installs inj as the world's transit fault layer and
// schedules the resolver crashes its schedule selects: at the crash
// time the resolver flushes its cache and abandons its in-flight
// queries, and the host goes down for the injector's outage duration,
// then comes back up (restart with a cold cache). Crash selection and timing are keyed on
// each resolver's primary address, so the same resolvers crash at the
// same virtual times at any shard count. Returns the number of crashes
// scheduled in this world.
func (w *World) ScheduleChaos(inj *chaos.Injector) int {
	w.Net.SetFaultHook(inj.Transit)
	outage := inj.Config().OutageDuration
	crashes := 0
	for _, res := range w.Resolvers {
		at, ok := inj.CrashTime(res.Host.Addrs[0])
		if !ok {
			continue
		}
		r := res
		w.Net.Q.At(at, func(now time.Duration) {
			r.Crash(now)
			r.Host.SetDown(true)
		})
		w.Net.Q.At(at+outage, func(time.Duration) { r.Host.SetDown(false) })
		crashes++
	}
	return crashes
}

// The experiment-infrastructure ASNs. BuildRegistry marks each with
// the Infra role (and AS 30 with PublicService) so downstream layers —
// chaos eligibility, campaign accounting, analysis — consult the
// registry instead of hard-coding this list.
const (
	InfraASN   routing.ASN = 10 // roots, auth servers, reverse DNS
	ScannerASN routing.ASN = 20 // the scanner's own network (no OSAV)
	PublicASN  routing.ASN = 30 // shared public-DNS space (every host a public resolver)
	ThirdASN   routing.ASN = 40 // third-party upstream space
)

// BuildRegistry constructs the routing registry for the population:
// the infrastructure ASes plus every target AS with its filtering
// policy. The registry is read-only after construction and safe for
// concurrent lookups, so a sharded survey builds it once and shares it
// across every shard's network. Each visit func also sees every
// population AS during the same sweep, after its registry entry, so a
// caller derives its own per-AS tables without synthesizing the
// population again; the spec is EachAS scratch.
func BuildRegistry(pop ditl.Pop, opts Options, visit ...func(i int, spec *ditl.ASSpec)) (*routing.Registry, error) {
	reg := routing.NewRegistry()

	infraAS := &routing.AS{ASN: InfraASN, Prefixes: []netip.Prefix{infraPrefix4, infraPrefix6}, Infra: true}
	scannerAS := &routing.AS{ASN: ScannerASN, Prefixes: []netip.Prefix{scannerPrefix4, scannerPrefix6}, Infra: true} // no OSAV: required (§3.4)
	publicAS := &routing.AS{ASN: PublicASN, Prefixes: []netip.Prefix{publicPrefix4, publicPrefix6}, Infra: true, PublicService: true}
	thirdAS := &routing.AS{ASN: ThirdASN, Prefixes: []netip.Prefix{thirdPrefix4}, Infra: true}
	for _, as := range []*routing.AS{infraAS, scannerAS, publicAS, thirdAS} {
		if err := reg.Add(as); err != nil {
			return nil, err
		}
	}
	var addErr error
	pop.EachAS(nil, func(i int, spec *ditl.ASSpec) {
		if addErr != nil {
			return
		}
		dsav := spec.DSAV
		if opts.AllDSAV {
			dsav = true
		}
		if opts.NoDSAV {
			dsav = false
		}
		as := &routing.AS{
			ASN: spec.ASN, Prefixes: spec.Prefixes(),
			DSAV: dsav, OSAV: spec.OSAV, FilterBogons: spec.FilterBogons,
			Countries: spec.Countries,
		}
		if addErr = reg.Add(as); addErr != nil {
			return
		}
		for _, fn := range visit {
			fn(i, spec)
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	return reg, nil
}

// BuildWith constructs a world over a pre-built registry, instantiating
// hosts only for the population ASes whose (global population) indices
// are listed. asIndices == nil instantiates every AS. The registry
// always describes the full population, so routing and filtering
// behave identically no matter how ASes are split across shard worlds;
// only host instantiation is restricted. One sweep over the listed ASes
// builds both their hosts and their reverse-DNS records, and hands each
// spec (EachAS scratch) to every visit func once the AS is built, so a
// caller can admit the shard's candidates in the same sweep.
func BuildWith(pop ditl.Pop, reg *routing.Registry, opts Options, asIndices []int, visit ...func(i int, spec *ditl.ASSpec)) (*World, error) {
	infraAS := reg.AS(InfraASN)
	scannerAS := reg.AS(ScannerASN)

	n := netsim.New(reg, netsim.Config{Seed: opts.Seed, LossRate: opts.LossRate})
	w := &World{
		Net: n, Reg: reg,
		asPublic: make(map[routing.ASN][]netip.Addr),
		asThird:  make(map[routing.ASN]netip.Addr),
		seed:     uint64(opts.Seed),
		publicAS: reg.AS(PublicASN),
		thirdAS:  reg.AS(ThirdASN),
	}

	if opts.Invariants {
		w.Invariants = NewInvariants()
		n.SetDeliveryHook(w.Invariants.OnDelivery)
	}

	if err := w.buildInfra(infraAS, opts); err != nil {
		return nil, err
	}
	rdns, err := w.buildReverseDNS(infraAS)
	if err != nil {
		return nil, err
	}
	if err := w.buildScanner(scannerAS); err != nil {
		return nil, err
	}
	if err := w.buildPublicDNS(w.publicAS); err != nil {
		return nil, err
	}

	var buildErr error
	pop.EachAS(asIndices, func(i int, spec *ditl.ASSpec) {
		if buildErr != nil {
			return
		}
		rdns.add(spec)
		if buildErr = w.buildTargetAS(i, spec, reg.AS(spec.ASN)); buildErr != nil {
			return
		}
		for _, fn := range visit {
			fn(i, spec)
		}
	})
	if buildErr != nil {
		return nil, buildErr
	}
	return w, nil
}

// cacheObs returns the cache observer every resolver in the world is
// built with (nil when invariant checking is off).
func (w *World) cacheObs() resolver.CacheObserver {
	if w.Invariants == nil {
		return nil
	}
	return w.Invariants
}

func (w *World) buildInfra(as *routing.AS, opts Options) error {
	rootA4, rootA6 := routing.AddrAt(infraPrefix4, 1), routing.AddrAt(infraPrefix6, 1)
	orgA4, orgA6 := routing.AddrAt(infraPrefix4, 2), routing.AddrAt(infraPrefix6, 2)
	ns1A4, ns1A6 := routing.AddrAt(infraPrefix4, 3), routing.AddrAt(infraPrefix6, 3)
	nsV4 := routing.AddrAt(infraPrefix4, 4)
	nsV6 := routing.AddrAt(infraPrefix6, 5)

	soa := dnswire.SOAData{
		MName: "www.dns-lab.org", RName: "research.dns-lab.org",
		Serial: 2019110601, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 60,
	}

	rootHost, err := w.Net.Attach("root-servers", as, rootA4, rootA6)
	if err != nil {
		return err
	}
	rootZone := authserver.NewZone(dnswire.Root, soa)
	rootZone.TTL = 86400
	w.rootZone = rootZone
	rootZone.Delegate(&authserver.Delegation{
		Apex: "org", NS: []dnswire.Name{"a0.org.afilias-nst.info"},
		Glue: map[dnswire.Name][]netip.Addr{"a0.org.afilias-nst.info": {orgA4, orgA6}},
	})
	if _, err := authserver.New(rootHost, rootZone); err != nil {
		return err
	}
	w.Roots = []netip.Addr{rootA4, rootA6}

	orgHost, err := w.Net.Attach("org-servers", as, orgA4, orgA6)
	if err != nil {
		return err
	}
	orgZone := authserver.NewZone("org", soa)
	orgZone.TTL = 86400
	orgZone.Delegate(&authserver.Delegation{
		Apex: Zone, NS: []dnswire.Name{"ns1.dns-lab.org"},
		Glue: map[dnswire.Name][]netip.Addr{"ns1.dns-lab.org": {ns1A4, ns1A6}},
	})
	if _, err := authserver.New(orgHost, orgZone); err != nil {
		return err
	}

	// The experimenter's servers: ns1 (dual-stack) serving the main and
	// tc zones; family-restricted servers for the v4/v6 subzones.
	ns1Host, err := w.Net.Attach("ns1.dns-lab.org", as, ns1A4, ns1A6)
	if err != nil {
		return err
	}
	main := authserver.NewZone(Zone, soa)
	main.Wildcard = opts.Wildcard
	main.AddAddr("www.dns-lab.org", ns1A4, 300)
	main.Delegate(&authserver.Delegation{
		Apex: ZoneV4, NS: []dnswire.Name{"ns-v4.dns-lab.org"},
		Glue: map[dnswire.Name][]netip.Addr{"ns-v4.dns-lab.org": {nsV4}},
	})
	main.Delegate(&authserver.Delegation{
		Apex: ZoneV6, NS: []dnswire.Name{"ns-v6.dns-lab.org"},
		Glue: map[dnswire.Name][]netip.Addr{"ns-v6.dns-lab.org": {nsV6}},
	})
	tc := authserver.NewZone(ZoneTC, soa)
	tc.AlwaysTruncate = true
	tc.Wildcard = opts.Wildcard
	ns1, err := authserver.New(ns1Host, main, tc)
	if err != nil {
		return err
	}
	w.MainZone = main

	v4Host, err := w.Net.Attach("ns-v4.dns-lab.org", as, nsV4)
	if err != nil {
		return err
	}
	v4zone := authserver.NewZone(ZoneV4, soa)
	v4zone.Wildcard = opts.Wildcard
	srvV4, err := authserver.New(v4Host, v4zone)
	if err != nil {
		return err
	}

	v6Host, err := w.Net.Attach("ns-v6.dns-lab.org", as, nsV6)
	if err != nil {
		return err
	}
	v6zone := authserver.NewZone(ZoneV6, soa)
	v6zone.Wildcard = opts.Wildcard
	srvV6, err := authserver.New(v6Host, v6zone)
	if err != nil {
		return err
	}

	w.Auth = []*authserver.Server{ns1, srvV4, srvV6}
	return nil
}

// PublishesPTR reports whether a resolver publishes reverse DNS (the
// §5.2.1 contact-discovery path works only for these; roughly 70% of
// the population).
func PublishesPTR(spec *ditl.ResolverSpec) bool { return spec.Index%10 < 7 }

// buildReverseDNS attaches the in-addr.arpa / ip6.arpa / example.net
// server used by the §5.2.1 contact-discovery pipeline, serving zones
// that start empty: BuildWith's target-AS sweep fills them through add.
// Zones are scoped to the ASes the world instantiates: campaign traffic
// never queries these zones, so a shard world only carries its own
// shard's records — in a streaming survey this is what keeps
// reverse-DNS state O(shard) instead of O(population).
func (w *World) buildReverseDNS(as *routing.AS) (*reverseZones, error) {
	addr := routing.AddrAt(infraPrefix4, 6)
	host, err := w.Net.Attach("rdns", as, addr)
	if err != nil {
		return nil, err
	}
	soa := dnswire.SOAData{
		MName: "rdns.example.net", RName: "noc.example.net",
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}
	z := &reverseZones{
		v4rev: authserver.NewZone("in-addr.arpa", soa),
		v6rev: authserver.NewZone("ip6.arpa", soa),
		opdom: authserver.NewZone("example.net", soa),
	}
	if _, err := authserver.New(host, z.v4rev, z.v6rev, z.opdom); err != nil {
		return nil, err
	}
	for _, apex := range []dnswire.Name{"in-addr.arpa", "ip6.arpa", "example.net"} {
		w.rootZone.Delegate(&authserver.Delegation{
			Apex: apex, NS: []dnswire.Name{"rdns.example.net"},
			Glue: map[dnswire.Name][]netip.Addr{"rdns.example.net": {addr}},
		})
	}
	return z, nil
}

// reverseZones are the reverse-DNS server's zones.
type reverseZones struct {
	v4rev, v6rev, opdom *authserver.Zone
}

// add records PTR records for the AS's resolvers that publish them and,
// when it has any, the AS's SOA record, whose RNAME carries the
// operator contact.
//
//doors:scratch asSpec
func (z *reverseZones) add(asSpec *ditl.ASSpec) {
	domain := dnswire.Name(fmt.Sprintf("as%d.example.net", asSpec.ASN))
	hasPTR := false
	for k := 0; k < asSpec.NumResolvers(); k++ {
		rs := asSpec.Resolver(k)
		if !PublishesPTR(&rs) {
			continue
		}
		target := dnswire.Name(fmt.Sprintf("r%d.%s", rs.Index, string(domain)))
		if rs.HasV4() {
			z.v4rev.AddRecord(dnswire.RR{
				Name: dnswire.ReverseName(rs.Addr4), Type: dnswire.TypePTR,
				Class: dnswire.ClassIN, TTL: 3600, Target: target,
			})
		}
		if rs.HasV6() {
			z.v6rev.AddRecord(dnswire.RR{
				Name: dnswire.ReverseName(rs.Addr6), Type: dnswire.TypePTR,
				Class: dnswire.ClassIN, TTL: 3600, Target: target,
			})
		}
		hasPTR = true
	}
	if hasPTR {
		z.opdom.AddRecord(dnswire.RR{
			Name: domain, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 3600,
			SOA: &dnswire.SOAData{
				MName:  "ns." + domain,
				RName:  "hostmaster." + domain,
				Serial: 2019110601, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
			},
		})
	}
}

func (w *World) buildScanner(as *routing.AS) error {
	w.ScannerAddr4 = routing.AddrAt(scannerPrefix4, 10)
	w.ScannerAddr6 = routing.AddrAt(scannerPrefix6, 10)
	h, err := w.Net.Attach("scanner", as, w.ScannerAddr4, w.ScannerAddr6)
	if err != nil {
		return err
	}
	w.Scanner = h
	return nil
}

func (w *World) buildPublicDNS(as *routing.AS) error {
	for i := 0; i < 2; i++ {
		a4 := routing.AddrAt(publicPrefix4, uint64(1+i))
		a6 := routing.AddrAt(publicPrefix6, uint64(1+i))
		if _, err := w.openResolver(fmt.Sprintf("public-dns-%d", i), as, oskernel.UbuntuModern, w.Roots, nil,
			detrand.Rand(w.seed, uint64(i), saltGlobalPubPorts), int64(detrand.Mix(w.seed, uint64(i), saltGlobalPubSeed)),
			a4, a6); err != nil {
			return err
		}
		w.PublicDNS = append(w.PublicDNS, a4, a6)
	}
	return nil
}

// publicFor lazily attaches the per-AS public-DNS replica instances for
// population AS index i. Replicas live in the public-DNS AS at offsets
// derived from the global AS index, so the same AS gets the same
// replica addresses in any shard world. Because only AS i's traffic
// reaches its replicas, their cache and RNG state evolves in an order
// determined solely by that AS — the per-AS isolation the deterministic
// sharded survey rests on.
func (w *World) publicFor(i int, asn routing.ASN) ([]netip.Addr, error) {
	if got := w.asPublic[asn]; got != nil {
		return got, nil
	}
	addrs := make([]netip.Addr, 0, 4)
	for j := 0; j < 2; j++ {
		off := uint64(1000 + 2*i + j)
		a4 := routing.AddrAt(publicPrefix4, off)
		a6 := routing.AddrAt(publicPrefix6, off)
		if _, err := w.openResolver(fmt.Sprintf("public-dns-as%d-%d", asn, j), w.publicAS, oskernel.UbuntuModern, w.Roots, nil,
			detrand.Rand(w.seed, uint64(asn), uint64(j), saltPubPorts), int64(detrand.Mix(w.seed, uint64(asn), uint64(j), saltPubSeed)),
			a4, a6); err != nil {
			return nil, err
		}
		addrs = append(addrs, a4, a6)
	}
	w.asPublic[asn] = addrs
	return addrs, nil
}

// thirdFor lazily attaches the per-AS replica of the "unexplained"
// third-party upstream some forwarders use (the §3.6.1 residual).
func (w *World) thirdFor(i int, asn routing.ASN) (netip.Addr, error) {
	if got, ok := w.asThird[asn]; ok {
		return got, nil
	}
	a4 := routing.AddrAt(thirdPrefix4, uint64(1000+i))
	if _, err := w.openResolver(fmt.Sprintf("third-party-dns-as%d", asn), w.thirdAS, oskernel.UbuntuLegacy, w.Roots, nil,
		detrand.Rand(w.seed, uint64(asn), saltThirdPorts), int64(detrand.Mix(w.seed, uint64(asn), saltThirdSeed)),
		a4); err != nil {
		return netip.Addr{}, err
	}
	w.asThird[asn] = a4
	return a4, nil
}

// openResolver attaches host name to as at addrs and runs an open
// service resolver on it: the OS profile prof with its fingerprint
// scrubbed, roots for its root hints and forward for its upstreams, a
// Uniform allocator over the Linux pool drawing from ports, and the
// world's cache observer.
func (w *World) openResolver(name string, as *routing.AS, prof *oskernel.Profile, roots, forward []netip.Addr, ports *rand.Rand, seed int64, addrs ...netip.Addr) (*resolver.Resolver, error) {
	h, err := w.Net.Attach(name, as, addrs...)
	if err != nil {
		return nil, err
	}
	h.OS = prof
	h.ScrubFingerprint = true
	return resolver.New(h, roots, resolver.Config{
		ACL:           resolver.ACL{Open: true},
		Ports:         resolver.NewUniform(oskernel.PoolLinux, ports),
		Forward:       forward,
		Seed:          seed,
		CacheObserver: w.cacheObs(),
	})
}

// aclFor translates a spec's ACL scope into resolver prefixes.
func aclFor(spec *ditl.ResolverSpec, as *routing.AS) resolver.ACL {
	var acl resolver.ACL
	switch spec.Scope {
	case ditl.ScopeOpen:
		acl.Open = true
	case ditl.ScopeWholeAS:
		acl.Allowed = append(acl.Allowed, as.Prefixes...)
	case ditl.ScopeSamePrefix:
		if spec.Addr4.IsValid() {
			acl.Allowed = append(acl.Allowed, routing.SubnetOf(spec.Addr4))
		}
		if spec.Addr6.IsValid() {
			acl.Allowed = append(acl.Allowed, routing.SubnetOf(spec.Addr6))
		}
	case ditl.ScopeOtherSubnets:
		// Client subnets that exclude the resolver's own subnet: the
		// configuration other-prefix spoofing defeats but same-prefix
		// and dst-as-src do not.
		rng := detrand.Rand(uint64(spec.Seed), saltACLSubnets)
		for _, p := range as.V4Prefixes() {
			own := netip.Prefix{}
			if spec.Addr4.IsValid() {
				own = routing.SubnetOf(spec.Addr4)
			}
			picked := 0
			for j, n := 0, routing.SubnetCount(p, 16); j < n; j++ {
				if s := routing.SubnetAt(p, j); s != own && rng.Float64() < 0.6 && picked < 2 {
					acl.Allowed = append(acl.Allowed, s)
					picked++
				}
			}
		}
		for _, p := range as.V6Prefixes() {
			own := netip.Prefix{}
			if spec.Addr6.IsValid() {
				own = routing.SubnetOf(spec.Addr6)
			}
			for j, n := 0, routing.SubnetCount(p, 8); j < n; j++ {
				if s := routing.SubnetAt(p, j); s != own {
					acl.Allowed = append(acl.Allowed, s)
					break
				}
			}
		}
		if len(acl.Allowed) == 0 {
			// Single-subnet AS: behaves as strict.
			acl.Allowed = append(acl.Allowed, netip.PrefixFrom(as.Prefixes[0].Masked().Addr(), 32))
		}
	case ditl.ScopeASPlusPrivate:
		acl.Allowed = append(acl.Allowed, as.Prefixes...)
		acl.Allowed = append(acl.Allowed,
			netip.MustParsePrefix("10.0.0.0/8"),
			netip.MustParsePrefix("172.16.0.0/12"),
			netip.MustParsePrefix("192.168.0.0/16"),
			netip.MustParsePrefix("fc00::/7"))
	case ditl.ScopeStrict:
		// Allow only the (never-spoofed) network address of the first
		// prefix: effectively refuses every experimental source.
		acl.Allowed = append(acl.Allowed, netip.PrefixFrom(as.Prefixes[0].Masked().Addr(), 32))
	}
	if spec.ACLAllowLoopback && !acl.Open {
		acl.Allowed = append(acl.Allowed,
			netip.MustParsePrefix("127.0.0.0/8"),
			netip.MustParsePrefix("::1/128"))
	}
	return acl
}

//doors:scratch spec
func (w *World) buildTargetAS(i int, spec *ditl.ASSpec, as *routing.AS) error {
	for k := 0; k < spec.NumResolvers(); k++ {
		rs := spec.Resolver(k)
		var addrs []netip.Addr
		if rs.Addr4.IsValid() {
			addrs = append(addrs, rs.Addr4)
		}
		if rs.Addr6.IsValid() {
			addrs = append(addrs, rs.Addr6)
		}
		if len(addrs) == 0 {
			continue
		}
		h, err := w.Net.Attach(fmt.Sprintf("r%d", rs.Index), as, addrs...)
		if err != nil {
			return err
		}
		h.OS = rs.OS
		h.ScrubFingerprint = rs.Scrub

		cfg := resolver.Config{
			ACL:             aclFor(&rs, as),
			Ports:           rs.Allocator(),
			QnameMin:        rs.QnameMin,
			QnameMinLenient: rs.QnameMin && !rs.QnameMinStrict,
			Seed:            rs.Seed,
			CacheObserver:   w.cacheObs(),
		}
		roots := w.Roots
		if rs.Forward {
			var up netip.Addr
			if rs.Upstream == ditl.UpstreamThirdParty {
				up, err = w.thirdFor(i, spec.ASN)
			} else {
				var pub []netip.Addr
				pub, err = w.publicFor(i, spec.ASN)
				if err == nil {
					up = pub[rs.Index%len(pub)]
				}
			}
			if err != nil {
				return err
			}
			cfg.Forward = []netip.Addr{up}
			cfg.ForwardFraction = rs.ForwardFraction
			if rs.ForwardFraction == 0 || rs.ForwardFraction >= 1 {
				// Pure forwarder: no root hints, so it never iterates
				// and never minimizes QNAMEs.
				roots = nil
			}
		}
		res, err := resolver.New(h, roots, cfg)
		if err != nil {
			return err
		}
		w.Resolvers = append(w.Resolvers, res)
	}

	// Transparent middlebox (§3.6.1): intercept inbound UDP/53 and hand
	// it to a dedicated open forwarder resolving via public DNS, so the
	// auth servers see the public DNS service, not the target AS.
	if spec.Middlebox {
		a := routing.RandomHostAddr(routing.SubnetAt(spec.V4Prefixes[0], 0),
			detrand.Rand(w.seed, uint64(spec.ASN), saltMboxAddr))
		if w.Net.HostAt(a) == nil {
			pub, err := w.publicFor(i, spec.ASN)
			if err != nil {
				return err
			}
			// The middlebox is an open pure forwarder: no root hints.
			mb, err := w.openResolver(fmt.Sprintf("mbox-as%d", spec.ASN), as, oskernel.UbuntuModern, nil, []netip.Addr{pub[0]},
				detrand.Rand(w.seed, uint64(spec.ASN), saltMboxPorts), int64(detrand.Mix(w.seed, uint64(spec.ASN), saltMboxSeed)),
				a)
			if err != nil {
				return err
			}
			at := a
			w.Net.SetInterceptor(spec.ASN, func(now time.Duration, pkt *packet.Packet) bool {
				if pkt.UDP == nil || pkt.UDP.DstPort != 53 || pkt.Dst() == at {
					return false
				}
				mb.HandleQuery(now, pkt.Src(), pkt.UDP.SrcPort, at, pkt.Data)
				return true
			})
		}
	}

	// IDS analyst host (§3.6.3). The analyst resolves via the AS's own
	// public-DNS replica, so its queries perturb no other AS's state.
	if spec.IDS {
		pub, err := w.publicFor(i, spec.ASN)
		if err != nil {
			return err
		}
		rng := detrand.Rand(w.seed, uint64(spec.ASN), saltAnalystAddr)
		pref := spec.V4Prefixes[len(spec.V4Prefixes)-1]
		nsub := routing.SubnetCount(pref, 4)
		for tries := 0; tries < 8; tries++ {
			a := routing.RandomHostAddr(routing.SubnetAt(pref, rng.Intn(nsub)), rng)
			if w.Net.HostAt(a) == nil {
				h, err := w.Net.Attach(fmt.Sprintf("analyst-as%d", spec.ASN), as, a)
				if err != nil {
					return err
				}
				w.wireIDS(spec.ASN, h, pub[0])
				break
			}
		}
	}
	return nil
}

// The IDS human analyst's reaction time after a drop (§3.6.3) lies in
// [analystDelayMin, analystDelayMax).
const (
	analystDelayMin = time.Minute
	analystDelayMax = 30 * time.Minute
)

// wireIDS installs AS asn's drop hook, which models §3.6.3: when a
// spoofed query is dropped at that IDS-equipped border, analyst later
// resolves the logged name through upstream, the AS's public-DNS
// replica, producing an auth-side query with a lifetime far beyond the
// 10-second threshold. Whether and when an analyst reacts is hashed
// from the dropped query's identity (AS, name, drop time), not drawn
// from a shared stream, so the reaction set is the same for an AS no
// matter what other ASes share its simulation. ASes without an analyst
// get no hook, so the network need not build the datagrams their
// borders drop.
func (w *World) wireIDS(asn routing.ASN, analyst *netsim.Host, upstream netip.Addr) {
	w.Net.SetDropHook(asn, func(now time.Duration, reason netsim.DropReason, pkt *packet.Packet, dstAS *routing.AS) {
		if reason != netsim.DropDSAV && reason != netsim.DropBogonSource {
			return
		}
		if pkt == nil || pkt.UDP == nil || pkt.UDP.DstPort != 53 {
			return
		}
		msg := &w.ids
		if msg.Unpack(pkt.Data) != nil || msg.QR || len(msg.Question) == 0 {
			return
		}
		name := msg.Q().Name
		if !name.IsSubdomainOf(Zone) {
			return
		}
		key := detrand.Mix(w.seed, uint64(dstAS.ASN),
			detrand.HashBytes(w.seed, []byte(name)), uint64(now))
		if detrand.Float64(key, saltIDSSample) > 0.25 {
			return
		}
		delay := analystDelayMin +
			time.Duration(detrand.Mix(key, saltIDSDelay)%uint64(analystDelayMax-analystDelayMin))
		w.Net.Q.After(delay, func(time.Duration) {
			q := dnswire.NewQuery(uint16(detrand.Mix(key, saltIDSTxn)), name, dnswire.TypeA)
			payload, err := q.Pack()
			if err != nil {
				return
			}
			analyst.SendUDP(analyst.Addrs[0], 40000, upstream, 53, payload)
		})
	})
}
