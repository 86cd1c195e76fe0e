package ditl

import (
	"math/rand"
	"net/netip"

	"repro/internal/detrand"
	"repro/internal/oskernel"
	"repro/internal/resolver"
	"repro/internal/routing"
)

// Salt constants for the ditl package's detrand domains (band 71+; the
// saltbands analyzer in internal/lint registers every `salt* = N +
// iota` block and rejects overlaps between packages).
const (
	// saltPopulation keys the population generator's draw stream.
	saltPopulation = 71 + iota
	// saltAllocator keys each resolver's port-allocator stream on its
	// per-resolver seed.
	saltAllocator
	// saltPassive keys the synthesized 2018 DITL passive view.
	saltPassive
)

// ACLScope classifies a resolver's client ACL (§5.1): the scope
// determines which spoofed-source categories can pass it (§4.1).
type ACLScope int

// ACL scopes observed in the wild, per the paper's discussion.
const (
	// ScopeOpen answers anyone.
	ScopeOpen ACLScope = iota
	// ScopeWholeAS allows any address the AS announces.
	ScopeWholeAS
	// ScopeSamePrefix allows only the resolver's own /24 (or /64).
	ScopeSamePrefix
	// ScopeOtherSubnets allows specific client subnets that do NOT
	// include the resolver's own — the configuration that makes
	// same-prefix and destination-as-source spoofing fail while
	// other-prefix succeeds.
	ScopeOtherSubnets
	// ScopeASPlusPrivate allows the AS plus RFC 1918 / unique-local
	// space (NAT-era configurations; the paper's "private" category
	// reaches these).
	ScopeASPlusPrivate
	// ScopeStrict allows none of the experiment's spoofed sources (the
	// REFUSED respondents of §3.8).
	ScopeStrict
)

// String names the scope.
func (s ACLScope) String() string {
	switch s {
	case ScopeOpen:
		return "open"
	case ScopeWholeAS:
		return "whole-as"
	case ScopeSamePrefix:
		return "same-prefix"
	case ScopeOtherSubnets:
		return "other-subnets"
	case ScopeASPlusPrivate:
		return "as+private"
	case ScopeStrict:
		return "strict"
	default:
		return "?"
	}
}

// Band labels the port-behaviour archetype a resolver was generated
// from (ground truth for validation; the analysis must recover these
// from observations alone).
type Band string

// Archetype bands mirroring Table 4's rows.
const (
	BandZero    Band = "zero"
	BandLow     Band = "low"     // range 1-200
	BandMidLow  Band = "midlow"  // 201-940
	BandWindows Band = "windows" // Windows DNS pool
	BandMidGap  Band = "midgap"  // 2489-6124
	BandFreeBSD Band = "freebsd"
	BandLinux   Band = "linux"
	BandFull    Band = "full"
)

// UpstreamKind selects a forwarder's upstream.
type UpstreamKind int

// Forwarder upstream kinds (§3.6.1's accounting: public DNS services
// explain most indirect ASes; a residual goes to unexplained third
// parties).
const (
	UpstreamPublicDNS UpstreamKind = iota
	UpstreamThirdParty
)

// History2018 describes a resolver's behaviour at the time of the 2018
// DITL collection (§5.2.2's passive comparison).
type History2018 int

// 2018 behaviours for currently-zero-range resolvers.
const (
	HistorySameZero  History2018 = iota // already fixed-port in 2018 (51%)
	HistoryRegressed                    // had port variance in 2018 (25%)
	HistoryAbsent                       // not in the 2018 data (24%)
)

// ResolverSpec describes one live resolver target.
type ResolverSpec struct {
	Index        int
	ASN          routing.ASN
	Addr4, Addr6 netip.Addr // invalid Addr means family absent

	OS       *oskernel.Profile
	Software resolver.Software
	// SmallPoolSize overrides the allocator with a uniform pool of this
	// size (archetypes between the named OS pools).
	SmallPoolSize int
	// SeqSize selects a sequential allocator of this size.
	SeqSize int
	// FixedPortOverride pins a specific fixed port (0 = software default).
	FixedPortOverride uint16

	Scope            ACLScope
	ACLAllowLoopback bool

	QnameMin       bool
	QnameMinStrict bool

	Forward bool
	// ForwardFraction: 0 or 1 means a pure forwarder; an intermediate
	// value forwards that share of queries (by name hash) and recurses
	// the rest — the mixed-behaviour targets of §5.4.
	ForwardFraction float64
	Upstream        UpstreamKind

	Scrub bool
	Seed  int64

	Band    Band
	History History2018
}

// HasV4 reports whether the resolver has an IPv4 address.
func (r *ResolverSpec) HasV4() bool { return r.Addr4.IsValid() }

// HasV6 reports whether the resolver has an IPv6 address.
func (r *ResolverSpec) HasV6() bool { return r.Addr6.IsValid() }

// ASSpec describes one target AS. Its live resolvers are kept by value
// in generation order; read them through NumResolvers and Resolver.
type ASSpec struct {
	ASN          routing.ASN
	V4Prefixes   []netip.Prefix
	V6Prefixes   []netip.Prefix
	DSAV         bool
	OSAV         bool
	FilterBogons bool
	IDS          bool
	Middlebox    bool
	Countries    []string

	DeadTargets []netip.Addr

	resolvers []ResolverSpec
}

// NumResolvers returns the AS's live resolver count.
//
//doors:hotpath
func (a *ASSpec) NumResolvers() int { return len(a.resolvers) }

// Resolver returns the AS's k-th resolver spec.
//
//doors:hotpath
func (a *ASSpec) Resolver(k int) ResolverSpec { return a.resolvers[k] }

// Prefixes returns all announced prefixes.
func (a *ASSpec) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(a.V4Prefixes)+len(a.V6Prefixes))
	out = append(out, a.V4Prefixes...)
	return append(out, a.V6Prefixes...)
}

// Population is the generated target world.
type Population struct {
	Params Params
	ASes   []*ASSpec
}

// v4BlockFor maps a block index to a /16 in safely "public" space,
// skipping first octets with special-purpose carve-outs.
func v4BlockFor(i int) netip.Prefix {
	okFirst := make([]int, 0, 200)
	for a := 1; a <= 223; a++ {
		switch a {
		case 10, 100, 127, 169, 172, 192, 198, 203:
			continue
		}
		okFirst = append(okFirst, a)
	}
	a := okFirst[(i/256)%len(okFirst)]
	b := i % 256
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a), byte(b), 0, 0}), 16)
}

// v6BlockFor maps a block index to a /48.
func v6BlockFor(i int) netip.Prefix {
	var b [16]byte
	b[0], b[1] = 0x2a, 0x00
	b[2], b[3] = byte(i>>16), 0x01
	b[4], b[5] = byte(i>>8), byte(i)
	return netip.PrefixFrom(netip.AddrFrom16(b), 48)
}

// carvePrefixes selects the AS's announced v4 prefixes within its /16.
func carvePrefixes(block netip.Prefix, rng *rand.Rand) []netip.Prefix {
	base := block.Masked().Addr().As4()
	mk := func(third uint8, bits int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{base[0], base[1], third, 0}), bits)
	}
	x := rng.Float64()
	switch {
	case x < 0.15: // single /24 (no other-prefix candidates at all)
		return []netip.Prefix{mk(uint8(rng.Intn(256)), 24)}
	case x < 0.60: // small: 2-4 /24s
		n := 2 + rng.Intn(3)
		ps := make([]netip.Prefix, 0, n)
		for k := 0; k < n; k++ {
			ps = append(ps, mk(uint8(k*8+rng.Intn(8)), 24))
		}
		return ps
	case x < 0.82: // medium: a /22 and a /24
		ps := []netip.Prefix{mk(uint8(rng.Intn(32))<<2, 22)}
		if rng.Float64() < 0.5 {
			ps = append(ps, mk(uint8(128+rng.Intn(128)), 24))
		}
		return ps
	case x < 0.94: // large: /20 or /19
		bits := 20 - rng.Intn(2)
		step := uint8(1 << (24 - bits))
		return []netip.Prefix{mk(uint8(rng.Intn(4))*step*2, bits)}
	case x < 0.98: // very large: /18 (64 /24s)
		return []netip.Prefix{mk(uint8(rng.Intn(2))<<6, 18)}
	default: // xlarge: /17 (128 /24s — exercises the 97-prefix cap)
		return []netip.Prefix{mk(0, 17)}
	}
}

// Generate builds a population eagerly. NewView builds the same
// population as a streaming view; both synthesize each AS through
// genAS so the draw streams are identical.
func Generate(p Params) *Population {
	p = p.withDefaults()
	rng := detrand.Rand(uint64(p.Seed), saltPopulation)
	pop := &Population{Params: p}
	used := make(map[netip.Addr]bool)
	resolverIdx := 0
	for i := 0; i < p.ASes; i++ {
		as := &ASSpec{}
		resolverIdx = genAS(p, rng, i, resolverIdx, as, used)
		pop.ASes = append(pop.ASes, as)
	}
	return pop
}

// genAS synthesizes population AS i into as, drawing from rng the
// exact sequence the eager generator has always drawn (the stream is
// pinned by the golden report). All fields of as are reset; its
// resolver and DeadTargets backing arrays are emptied and appended to,
// so a streaming caller recycles one scratch ASSpec and a fresh
// ASSpec gets arrays of its own. used is per-AS address-dedup scratch,
// cleared on entry. Returns the global resolver index after this AS.
//
//doors:scratch as used
func genAS(p Params, rng *rand.Rand, i, resolverIdx int, as *ASSpec, used map[netip.Addr]bool) int {
	clear(used)
	*as = ASSpec{resolvers: as.resolvers[:0], DeadTargets: as.DeadTargets[:0]}

	country := pickCountry(rng)
	prefixes := carvePrefixes(v4BlockFor(i), rng)
	// Large ISPs filter martians near-universally; the residual
	// bogon-accepting networks are small ones.
	bogonP := p.BogonFilterFraction
	if asSizeBoost(&ASSpec{V4Prefixes: prefixes}) > 1.5 {
		bogonP = 1 - (1-bogonP)/3
	}
	as.ASN = routing.ASN(1000 + i)
	as.V4Prefixes = prefixes
	as.DSAV = rng.Float64() >= country.dsavLack
	as.OSAV = rng.Float64() < 0.7
	as.FilterBogons = rng.Float64() < bogonP
	as.IDS = rng.Float64() < p.IDSASFraction
	as.Middlebox = rng.Float64() < p.MiddleboxASFraction
	as.Countries = []string{country.code}
	if rng.Float64() < 0.1 { // some ASes span two countries (§4)
		second := pickCountry(rng)
		if second.code != country.code {
			as.Countries = append(as.Countries, second.code)
		}
	}
	if rng.Float64() < p.V6ASFraction {
		as.V6Prefixes = []netip.Prefix{v6BlockFor(i)}
	}

	// Live resolvers. Larger ASes host more resolvers (and more dead
	// targets below): the paper's target counts are dominated by big
	// ISPs (Table 1: the US averages ~175 targets per AS).
	sizeBoost := asSizeBoost(as)
	liveMean := int(float64(p.LiveResolverMean) * country.liveBoost * sizeBoost)
	if liveMean > 8 {
		liveMean = 8
	}
	nLive := 1 + geomRand(rng, liveMean)
	if nLive > 30 {
		nLive = 30 // no single AS may dominate the population
	}
	for k := 0; k < nLive; k++ {
		spec := genResolver(p, rng, as, country, resolverIdx, used)
		resolverIdx++
		as.resolvers = append(as.resolvers, spec)
	}

	// Dead targets (DITL sources that no longer respond, §3.6.2).
	nDead := geomRand(rng, int(float64(p.DeadTargetMean)*sizeBoost))
	for k := 0; k < nDead; k++ {
		pref := as.V4Prefixes[rng.Intn(len(as.V4Prefixes))]
		sub := routing.SubnetAt(pref, rng.Intn(routing.SubnetCount(pref, 64)))
		a := routing.RandomHostAddr(sub, rng)
		if !used[a] {
			used[a] = true
			as.DeadTargets = append(as.DeadTargets, a)
		}
	}
	if len(as.V6Prefixes) > 0 {
		pref := as.V6Prefixes[0]
		nDead6 := geomRand(rng, p.DeadTargetMeanV6)
		for k := 0; k < nDead6; k++ {
			sub := routing.SubnetAt(pref, rng.Intn(routing.SubnetCount(pref, 16)))
			a := routing.RandomHostAddr(sub, rng)
			if !used[a] {
				used[a] = true
				as.DeadTargets = append(as.DeadTargets, a)
			}
		}
	}
	return resolverIdx
}

// asSizeBoost scales per-AS population with announced space: 1x for a
// couple of /24s up to ~4x for a /17.
func asSizeBoost(as *ASSpec) float64 {
	subnets := 0
	for _, p := range as.V4Prefixes {
		bits := p.Bits()
		if bits > routing.V4SubnetBits {
			bits = routing.V4SubnetBits
		}
		subnets += 1 << (routing.V4SubnetBits - bits)
	}
	boost := 1.0
	for n := 4; n <= subnets && boost < 4; n *= 4 {
		boost += 0.75
	}
	return boost
}

// osMix samples a generic OS profile.
func osMix(rng *rand.Rand) *oskernel.Profile {
	x := rng.Float64()
	switch {
	case x < 0.50:
		return oskernel.UbuntuModern
	case x < 0.67:
		return oskernel.UbuntuLegacy
	case x < 0.72:
		return oskernel.FreeBSD12
	case x < 0.79:
		return oskernel.WindowsModern
	case x < 0.82:
		return oskernel.WindowsLegacy
	default:
		return oskernel.BaiduSpiderLike
	}
}

// genResolver samples one live resolver's joint configuration.
//
//doors:scratch as used
func genResolver(p Params, rng *rand.Rand, as *ASSpec, country countryProfile, idx int, used map[netip.Addr]bool) ResolverSpec {
	spec := ResolverSpec{
		Index: idx,
		ASN:   as.ASN,
		Seed:  p.Seed*1_000_003 + int64(idx),
	}

	// Addressing: v4 almost always; v6 when the AS has it.
	pref := as.V4Prefixes[rng.Intn(len(as.V4Prefixes))]
	nsub := routing.SubnetCount(pref, 64)
	for {
		a := routing.RandomHostAddr(routing.SubnetAt(pref, rng.Intn(nsub)), rng)
		if !used[a] {
			used[a] = true
			spec.Addr4 = a
			break
		}
	}
	if len(as.V6Prefixes) > 0 && rng.Float64() < 0.8 {
		pref6 := as.V6Prefixes[0]
		nsub6 := routing.SubnetCount(pref6, 8)
		for {
			a := routing.RandomHostAddr(routing.SubnetAt(pref6, rng.Intn(nsub6)), rng)
			if !used[a] {
				used[a] = true
				spec.Addr6 = a
				break
			}
		}
		if rng.Float64() < 0.08 { // a few v6-only resolvers
			spec.Addr4 = netip.Addr{}
		}
	}

	// Forwarder vs. direct. CPE-style forwarders are overwhelmingly
	// v4-only deployments (§5.4: 47% of v4 targets forwarded vs 16% of
	// v6 targets).
	fwdP := p.ForwarderFraction
	if spec.HasV6() {
		fwdP *= 0.25
	}
	if rng.Float64() < fwdP {
		spec.Forward = true
		if rng.Float64() < 0.08 {
			spec.ForwardFraction = 0.5 // mixed: forwards some, recurses some
		}
		spec.Band = BandFull
		spec.OS = osMix(rng)
		spec.Software = resolver.SoftwareBIND9Modern
		spec.Scrub = rng.Float64() < 0.9
		if rng.Float64() < 0.1 {
			spec.Upstream = UpstreamThirdParty
		}
		open := rng.Float64() < p.ForwarderOpenFraction*country.openBoost
		spec.Scope = closedScope(rng, open, spec.HasV6())
	} else {
		genDirect(rng, &spec, country)
	}

	if spec.HasV6() && spec.Scope == ScopeOpen && rng.Float64() < 0.85 {
		spec.Scope = ScopeSamePrefix
	}
	spec.ACLAllowLoopback = rng.Float64() < 0.5
	if rng.Float64() < p.QnameMinFraction {
		spec.QnameMin = true
		spec.QnameMinStrict = rng.Float64() < p.QnameMinStrictFraction
	}
	if spec.Scope != ScopeOpen && rng.Float64() < p.StrictClosedFraction {
		spec.Scope = ScopeStrict
	}

	// 2018 history (§5.2.2), meaningful for the zero-range archetype.
	switch x := rng.Float64(); {
	case x < 0.24:
		spec.History = HistoryAbsent
	case x < 0.49:
		spec.History = HistoryRegressed
	default:
		spec.History = HistorySameZero
	}
	return spec
}

// closedScope samples an ACL scope given open/closed. v6-capable
// resolvers skew toward same-prefix ACLs, reproducing the paper's v6
// ordering (same-prefix 84% > dst-as-src 70% > other-prefix 45%).
func closedScope(rng *rand.Rand, open, hasV6 bool) ACLScope {
	if open {
		return ScopeOpen
	}
	x := rng.Float64()
	if hasV6 {
		// v6 ACLs are typically /64-scoped; AS-wide v6 allows are rare,
		// which is why only 9% of the paper's v6 targets were reachable
		// via more than 50 sources.
		switch {
		case x < 0.08:
			return ScopeWholeAS
		case x < 0.66:
			return ScopeSamePrefix
		case x < 0.95:
			return ScopeOtherSubnets
		default:
			return ScopeASPlusPrivate
		}
	}
	switch {
	case x < 0.25:
		return ScopeWholeAS
	case x < 0.38:
		return ScopeSamePrefix
	case x < 0.95:
		return ScopeOtherSubnets
	default:
		return ScopeASPlusPrivate
	}
}

// genDirect samples the port-band archetype for a directly-recursing
// resolver, with the joint OS/software/ACL correlations of Table 4.
func genDirect(rng *rand.Rand, spec *ResolverSpec, country countryProfile) {
	openP := func(base float64) bool {
		return rng.Float64() < base*country.openBoost
	}
	scope := func(open bool) ACLScope { return closedScope(rng, open, spec.HasV6()) }
	x := rng.Float64()
	switch {
	case x < 0.013: // zero source-port randomization (§5.2.1)
		spec.Band = BandZero
		switch y := rng.Float64(); {
		case y < 0.34:
			spec.Software = resolver.SoftwareFixed53Config
		case y < 0.46:
			spec.Software = resolver.SoftwareBIND8
			spec.FixedPortOverride = 32768
		case y < 0.50:
			spec.Software = resolver.SoftwareBIND8
			spec.FixedPortOverride = 32769
		case y < 0.70:
			spec.Software = resolver.SoftwareWindowsDNSOld
		default:
			spec.Software = resolver.SoftwareBIND8
		}
		switch y := rng.Float64(); {
		case y < 0.20:
			spec.OS = oskernel.BaiduSpiderLike
		case y < 0.32:
			spec.OS = oskernel.WindowsLegacy
		default:
			spec.OS = osMix(rng)
		}
		spec.Scrub = rng.Float64() < 0.66
		spec.Scope = scope(openP(0.41))

	case x < 0.0145: // range 1-200 (§5.2.3)
		spec.Band = BandLow
		if rng.Float64() < 0.65 {
			spec.Software = resolver.SoftwareSequential
			spec.SeqSize = 30 + rng.Intn(170)
		} else {
			spec.Software = resolver.SoftwareSmallPool
			spec.SmallPoolSize = 20 + rng.Intn(180)
		}
		if rng.Float64() < 0.66 {
			spec.OS = oskernel.WindowsModern
			spec.Scrub = false
		} else {
			spec.OS = osMix(rng)
			spec.Scrub = rng.Float64() < 0.7
		}
		spec.Scope = scope(openP(0.82))

	case x < 0.015: // range 201-940
		spec.Band = BandMidLow
		spec.Software = resolver.SoftwareSmallPool
		spec.SmallPoolSize = 250 + rng.Intn(690)
		spec.OS = osMix(rng)
		spec.Scrub = rng.Float64() < 0.5
		spec.Scope = scope(openP(0.70))

	case x < 0.061: // Windows DNS pool (§5.3.2)
		spec.Band = BandWindows
		spec.Software = resolver.SoftwareWindowsDNS
		spec.OS = oskernel.WindowsModern
		spec.Scrub = rng.Float64() < 0.11
		spec.Scope = scope(openP(0.89))

	case x < 0.0622: // range 2489-6124
		spec.Band = BandMidGap
		spec.Software = resolver.SoftwareSmallPool
		spec.SmallPoolSize = 2600 + rng.Intn(3400)
		spec.OS = osMix(rng)
		spec.Scrub = rng.Float64() < 0.5
		spec.Scope = scope(openP(0.70))

	case x < 0.101: // FreeBSD pool
		spec.Band = BandFreeBSD
		spec.Software = resolver.SoftwareBIND9Modern
		spec.OS = oskernel.FreeBSD12
		spec.Scrub = rng.Float64() < 0.96
		spec.Scope = scope(openP(0.10))

	case x < 0.401: // Linux pool
		spec.Band = BandLinux
		if rng.Float64() < 0.8 {
			spec.OS = oskernel.UbuntuModern
		} else {
			spec.OS = oskernel.UbuntuLegacy
		}
		if rng.Float64() < 0.7 {
			spec.Software = resolver.SoftwareBIND9Modern
		} else {
			spec.Software = resolver.SoftwareKnot
		}
		spec.Scrub = rng.Float64() < 0.99
		spec.Scope = scope(openP(0.027))

	default: // full unprivileged range
		spec.Band = BandFull
		spec.OS = osMix(rng)
		switch y := rng.Float64(); {
		case y < 0.35:
			spec.Software = resolver.SoftwareUnbound
		case y < 0.60:
			spec.Software = resolver.SoftwarePowerDNS
		case y < 0.90:
			spec.Software = resolver.SoftwareBIND952
		case y < 0.92:
			spec.Software = resolver.SoftwareBIND950
		default:
			// BIND 9.11+ on Windows Server: full range (§5.3.2).
			spec.Software = resolver.SoftwareBIND9Modern
			spec.OS = oskernel.WindowsModern
		}
		spec.Scrub = rng.Float64() < 0.95
		spec.Scope = scope(openP(0.066))
	}
}

// Allocator's override pools start at a port in [1024, 1024+poolStarts).
const poolStarts = 50000

// maxSmallPool is the largest SmallPoolSize whose uniform pool cannot
// wrap past port 65535 from the highest start Allocator draws.
const maxSmallPool = 65535 - (1024 + poolStarts - 1)

// Allocator builds the resolver's port allocator from its spec.
func (r *ResolverSpec) Allocator() resolver.PortAllocator {
	rng := detrand.Rand(uint64(r.Seed), saltAllocator)
	if r.FixedPortOverride != 0 {
		return &resolver.FixedPort{Port: r.FixedPortOverride}
	}
	if r.SmallPoolSize > 0 {
		lo := uint16(1024 + rng.Intn(poolStarts))
		return resolver.NewUniform(oskernel.PortPool{Lo: lo, Hi: lo + uint16(r.SmallPoolSize)}, rng)
	}
	if r.SeqSize > 0 {
		return resolver.NewSequential(uint16(1024+rng.Intn(poolStarts)), r.SeqSize)
	}
	return resolver.NewAllocator(r.Software, r.OS, rng)
}

// Stats summarizes a population (used in reports and tests).
type Stats struct {
	ASes, NoDSAV         int
	V6ASes               int
	LiveResolvers        int
	DeadTargets          int
	Forwarders           int
	OpenResolvers        int
	ZeroPort             int
	TargetsV4, TargetsV6 int
}

// Summarize computes population statistics.
func (p *Population) Summarize() Stats {
	var s Stats
	for _, as := range p.ASes {
		tallyAS(&s, as)
	}
	return s
}
