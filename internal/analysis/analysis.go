// Package analysis turns the scanner's observations (authoritative-log
// hits) into the paper's results: the headline DSAV reachability
// numbers (§4), the country tables (Tables 1-2), the spoofed-source
// category table (Table 3), the open/closed study (§5.1), the
// source-port and OS-identification analyses (Tables 4-5, Figures 2-3,
// §5.2-5.3), forwarding (§5.4), local-system infiltration (§5.5), and
// the methodology accountings of §3.6 (middleboxes, human intervention,
// QNAME minimization).
//
// Analysis uses only what the experimenters could observe: the target
// list, the routing table, the query log, and the geo database — never
// the simulation's ground truth.
package analysis

import (
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/authserver"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/scanner"
	"repro/internal/stats"
)

// Input bundles the observations. Middlebox accounting recognizes
// public-DNS clients through the registry's PublicService role, so no
// separate allowlist is carried here.
type Input struct {
	Hits         []scanner.Hit
	Partials     []scanner.PartialHit
	Targets      []scanner.Target
	ScannerAddrs []netip.Addr
	Reg          *routing.Registry
	Geo          *geo.DB
	// LifetimeThreshold filters human-induced queries (10s, §3.6.3).
	LifetimeThreshold time.Duration
	// FollowUpCount is the expected port-sample size (10).
	FollowUpCount int
	FPDB          *fingerprint.DB
	Bands         []stats.Band
	// Stream is read by no reducer: Partition folds everything the
	// reducers need from the Hits slice. It stays only for perfbench's
	// traced replay (perfbench/replay.go), which still sets it, and goes
	// with that file.
	Stream *Streams
}

// Streams are re-drainable observation sources that no reducer reads
// any more: Partition folds each shard's hits, partials and targets
// into the Context, and the reduce reads only those folds. The type
// stays only for perfbench's traced replay (perfbench/replay.go), which
// still builds one over its spilled run files, and goes with that file.
type Streams struct {
	Hits    func(yield func(h *scanner.Hit)) error
	Targets func(yield func(t scanner.Target)) error
}

var defaultBands = sync.OnceValue(func() []stats.Band {
	return stats.DeriveBands([]stats.PoolSpec{
		{Label: "Windows DNS", Size: 2500},
		{Label: "FreeBSD", Size: 16383},
		{Label: "Linux", Size: 28232},
		{Label: "Full Port Range", Size: 64511},
	}, stats.SampleSize, 0.999, 65536)
})

// DefaultBands returns the Table 4 banding derived from the §5.3.2
// pools. The derivation (about 16 ms of Beta CDF evaluations) runs once
// per process, and every caller gets its own copy, so shard workers may
// call it concurrently and modify what they get.
func DefaultBands() []stats.Band {
	return slices.Clone(defaultBands())
}

// FamilyStat is a per-address-family headline row (§4 ¶1).
type FamilyStat struct {
	Targets        int
	ReachableAddrs int
	ASes           int
	ReachableASes  int
}

// AddrFraction is the reachable-address share.
func (f FamilyStat) AddrFraction() float64 {
	if f.Targets == 0 {
		return 0
	}
	return float64(f.ReachableAddrs) / float64(f.Targets)
}

// ASFraction is the reachable-AS share.
func (f FamilyStat) ASFraction() float64 {
	if f.ASes == 0 {
		return 0
	}
	return float64(f.ReachableASes) / float64(f.ASes)
}

// CategoryRow is one Table 3 row for one family.
type CategoryRow struct {
	Category scanner.SourceCategory
	// Inclusive: reached by at least one source of this category.
	InclusiveAddrs, InclusiveASNs int
	// Exclusive: reached by no other category.
	ExclusiveAddrs, ExclusiveASNs int
}

// CategoryTable is Table 3.
type CategoryTable struct {
	V4, V6 []CategoryRow
}

// OpenClosed is the §5.1 study.
type OpenClosed struct {
	Open, Closed int
	// ReachableASes is the number of ASes with ≥1 reachable resolver;
	// ASesWithClosed of those host ≥1 closed reachable resolver (the
	// "nearly 9 out of 10" statistic).
	ReachableASes, ASesWithClosed int
}

// PortSample is one directly-responding resolver's follow-up port
// observations (§5.2).
type PortSample struct {
	Addr netip.Addr
	ASN  routing.ASN
	// Ports are the observations in arrival order, wrap-adjusted (and
	// therefore widened to int) when p0f identified the host as Windows.
	Ports []int
	// RawPorts are the pre-adjustment observations.
	RawPorts []uint16
	Range    int
	Open     bool
	P0f      fingerprint.Label
}

// BandRow is one Table 4 row.
type BandRow struct {
	Band         stats.Band
	Total        int
	Open, Closed int
	P0fWindows   int
	P0fLinux     int
}

// PortReport covers §5.2-§5.3.
type PortReport struct {
	Samples []PortSample
	Table4  []BandRow

	// Figure 2 / 3b histograms of source-port ranges, split by status.
	HistFullOpen, HistFullClosed *stats.Histogram // 0-65535, bin 500
	HistZoomOpen, HistZoomClosed *stats.Histogram // 0-3000, bin 50
	// Figure 3b's bar composition: the p0f-identified subsets.
	HistFullP0fWin, HistFullP0fLin *stats.Histogram

	// Zero source-port randomization (§5.2.1).
	ZeroRange          []PortSample
	ZeroRangeClosed    int
	ZeroRangePort53    int
	ZeroRangeASNs      int
	ZeroASNsWithClosed int
	ZeroTopPorts       map[uint16]int
	// Ineffective allocation (§5.2.3), range 1-200.
	LowRange           []PortSample
	LowRangeIncreasing int
	LowRangeWrapped    int
	LowRangeFewUnique  int // ≤7 unique of 10
	LowRangeASNs       int
}

// Forwarding is §5.4.
type Forwarding struct {
	V4Resolved, V4Direct, V4Forwarded, V4Both int
	V6Resolved, V6Direct, V6Forwarded, V6Both int
}

// Middlebox is the §3.6.1 accounting.
type Middlebox struct {
	ReachableASes int
	DirectFromAS  int // ≥1 query from an address in the target AS
	ViaPublicDNS  int // otherwise explained by public DNS services
	Unexplained   int
}

// Qmin is the §3.6.4 accounting.
type Qmin struct {
	// ClientAddrs is the number of targeted addresses observed sending
	// QNAME-minimized queries; NeverFull of them never sent the full
	// query name (and are excluded from reachable counts).
	ClientAddrs, NeverFull int
	// ASNs observed via minimized queries; DetectedAnyway of them were
	// identified as lacking DSAV through full-name queries too.
	ASNs, DetectedAnyway int
}

// Lifetime is the §3.6.3 accounting.
type Lifetime struct {
	OverThresholdAddrs int // addresses whose only hits exceeded the threshold
	OverThresholdASes  int
	RecoveredASes      int // of those, ASes still detected via other resolvers
}

// Infiltration is §5.5's headline: targets reached with sources that
// should never arrive from outside.
type Infiltration struct {
	DstAsSrcAddrs int
	LoopbackAddrs int
}

// Report is the full analysis output.
type Report struct {
	V4, V6       FamilyStat
	Countries    []geo.CountryRow
	Table1       []geo.CountryRow
	Table2       []geo.CountryRow
	Table3       CategoryTable
	OpenClosed   OpenClosed
	Ports        PortReport
	Forwarding   Forwarding
	Middlebox    Middlebox
	Qmin         Qmin
	Lifetime     Lifetime
	Infiltration Infiltration

	// ReachableAddrs lists every reachable target, sorted (input to the
	// ground-truth validation of internal/analysis.Validate).
	ReachableAddrs []netip.Addr
	// OpenAddrs lists the reachable targets that answered the
	// non-spoofed open-resolver probe.
	OpenAddrs []netip.Addr

	// SourcesPerTarget: distinct spoofed sources that reached each
	// reachable target (§4.1's effectiveness distribution).
	MedianSourcesV4, MedianSourcesV6 float64
	// OneOrTwoSourcesV4/V6 count reachable targets hit by at most two
	// sources ("for nearly half of all reachable target IP addresses,
	// only one or two sources resulted in reachable queries").
	OneOrTwoSourcesV4, OneOrTwoSourcesV6 int
	// Over50SourcesV4/V6 count targets reachable via more than 50
	// sources (16% of v4, 9% of v6 in the paper).
	Over50SourcesV4, Over50SourcesV6 int
}

func (in Input) withDefaults() Input {
	if in.LifetimeThreshold == 0 {
		in.LifetimeThreshold = 10 * time.Second
	}
	if in.FollowUpCount == 0 {
		in.FollowUpCount = 10
	}
	if in.FPDB == nil {
		in.FPDB = fingerprint.NewDB()
	}
	if len(in.Bands) == 0 {
		in.Bands = DefaultBands()
	}
	return in
}

// Context is the partitioned observation state every reducer reads: the
// (defaulted) Input plus the compact per-target observation maps.
// Partition builds it once; reducers treat it as read-only, so each
// writes its own disjoint slice of the Report and a campaign may run
// any subset of reducers in any order.
//
// Everything in a merged Context is sized by the *results* or the
// ASes, never the targets: reachable, late and ports are keyed by
// observed targets, the QNAME-minimization sets by observed clients and
// ASes, and the target counts by AS. No reducer reads the Input's hit,
// partial or target buffers, so the final reduce holds no O(total
// targets) state and replays no hit log.
type Context struct {
	in Input
	// targets counts the admitted targets of each AS by family, from
	// the Input's target list (summed over shards by MergeContexts).
	targets map[routing.ASN]familyCounts
	// reachable maps each reachable target (≥1 timely spoofed full-name
	// hit) to its compact observation record.
	reachable map[netip.Addr]targetObs
	// late maps targets whose over-threshold hits were filtered (§3.6.3)
	// to their AS.
	late map[netip.Addr]routing.ASN
	// qminClients are targeted addresses observed sending QNAME-minimized
	// queries; qminASNs the origin ASes of all minimized-query clients
	// (§3.6.4). Folded per shard from the raw partials.
	qminClients map[netip.Addr]bool
	qminASNs    map[routing.ASN]bool
	// ports holds each reachable target's complete §5.2 port sample.
	ports map[netip.Addr]portObs
}

// Err is always nil: no reducer reads an observation stream, so a
// reduce cannot fail. It stays only for perfbench's traced replay
// (perfbench/replay.go), which still checks it, and goes with that
// file.
func (c *Context) Err() error { return nil }

// Reducer is one named, independent slice of the Report computation.
// Campaign phases contribute reducer lists; the name deduplicates a
// reducer contributed by more than one phase.
type Reducer struct {
	Name   string
	Reduce func(*Context, *Report)
}

// Reduce runs the reducers over the partitioned observations in order,
// skipping duplicates by name. Reducers accumulate into Report counters,
// so running one twice would corrupt the output — two phases may both
// name "headline" and it still runs exactly once.
func (c *Context) Reduce(r *Report, reducers []Reducer) {
	done := make(map[string]bool, len(reducers))
	for _, red := range reducers {
		if done[red.Name] {
			continue
		}
		done[red.Name] = true
		red.Reduce(c, r)
	}
}

// ReachabilityReducers computes everything observable from the spoofed
// main-probe phase alone: headline reachability, geography, the
// source-category table, the middlebox / QNAME-minimization / lifetime
// accountings, source effectiveness, and the reachable/open lists.
func ReachabilityReducers() []Reducer {
	return []Reducer{
		{Name: "headline", Reduce: computeHeadline},
		{Name: "countries", Reduce: computeCountries},
		{Name: "table3", Reduce: computeTable3},
		{Name: "middlebox", Reduce: computeMiddlebox},
		{Name: "qmin", Reduce: computeQmin},
		{Name: "lifetime", Reduce: computeLifetime},
		{Name: "sources", Reduce: computeSources},
		{Name: "reachable", Reduce: computeReachable},
	}
}

// CharacterizationReducers computes the follow-up-dependent results:
// open/closed status (§5.1), source-port randomization (§5.2-5.3), and
// forwarding (§5.4).
func CharacterizationReducers() []Reducer {
	return []Reducer{
		{Name: "openclosed", Reduce: computeOpenClosed},
		{Name: "ports", Reduce: computePorts},
		{Name: "forwarding", Reduce: computeForwarding},
	}
}

// AllReducers is the default survey's full reducer set.
func AllReducers() []Reducer {
	return append(ReachabilityReducers(), CharacterizationReducers()...)
}

// Analyze runs the full evaluation: partition once, then every reducer.
func Analyze(in Input) *Report {
	r := &Report{}
	Partition(in).Reduce(r, AllReducers())
	return r
}

// Partition applies defaults, counts the target list per AS and family,
// and folds the hit and partial logs into the compact per-target
// observation maps — the shared state the reducers consume. The
// target-ASN index and the per-target scratch records it needs are
// transient: they are sized by this shard's slice of the survey and
// become garbage when Partition returns, leaving only result- and
// AS-sized state on the Context.
//
// Every fold is order-independent (set inserts, bit ors) except the
// port sample, which keeps a target's first FollowUpCount direct
// follow-up ports and its last SYN in Hits order. A shard's Hits must
// therefore be its canonically sorted run (scanner.SealRuns): a target's
// hits all arrive in its own shard, so that run holds them in the order
// the merged hit log would.
func Partition(in Input) *Context {
	in = in.withDefaults()

	targetASN := make(map[netip.Addr]routing.ASN, len(in.Targets))
	targets := make(map[routing.ASN]familyCounts)
	for _, t := range in.Targets {
		targetASN[t.Addr] = t.ASN
		n := targets[t.ASN]
		if t.Addr.Is4() {
			n.v4++
		} else {
			n.v6++
		}
		targets[t.ASN] = n
	}

	// Partition hits: valid (spoofed, timely, aimed at a known target),
	// late (over-threshold), open-probe, and what every timely hit tells
	// the follow-up accountings. The per-target scratch records are
	// transient — only their compaction survives, because a target's hits
	// all arrive in its own shard (the sharding is by target AS), so the
	// per-shard fold of a target's hits is already the survey-wide fold.
	obs := make(map[netip.Addr]*scratch)
	get := func(a netip.Addr) *scratch {
		o := obs[a]
		if o == nil {
			o = &scratch{sources: make(map[netip.Addr]bool)}
			obs[a] = o
		}
		return o
	}

	late := make(map[netip.Addr]routing.ASN)
	for i := range in.Hits {
		h := &in.Hits[i]
		asn, known := targetASN[h.Dst]
		if !known {
			continue
		}
		cat := scanner.Categorize(h.Src, h.Dst, in.ScannerAddrs)
		if h.Lifetime > in.LifetimeThreshold {
			late[h.Dst] = asn
			continue
		}
		o := get(h.Dst)
		o.follow(h, asn, &in)
		if cat == scanner.CatNotSpoofed {
			if h.Kind == scanner.ProbeMain {
				o.open = true
			}
			continue
		}
		if h.Kind == scanner.ProbeMain {
			o.cats |= catBit(cat)
			o.sources[h.Src] = true
		}
	}

	// Fold the partials into the §3.6.4 sets. A partial's client can
	// only be a target of its own shard (clients live in the shard's
	// ASes), so the per-shard fold over the shard-local target index
	// unions into exactly the survey-wide sets.
	qminClients := make(map[netip.Addr]bool)
	qminASNs := make(map[routing.ASN]bool)
	for i := range in.Partials {
		p := &in.Partials[i]
		if _, isTarget := targetASN[p.Client]; isTarget {
			qminClients[p.Client] = true
		}
		if origin := in.Reg.OriginOf(p.Client); origin != nil {
			qminASNs[origin.ASN] = true
		}
	}

	// Reachable = targeted + at least one timely spoofed full-name hit,
	// compacted to the value record (category bits, distinct-source
	// count, open flag, seen bits, AS). A reachable target with a
	// complete port sample keeps it, labeled by p0f from its last SYN;
	// an incomplete sample is not comparable (§5.2.2 spirit) and goes.
	reachable := make(map[netip.Addr]targetObs, len(obs))
	ports := make(map[netip.Addr]portObs)
	for a, o := range obs {
		if o.cats == 0 {
			continue
		}
		reachable[a] = targetObs{
			asn:  targetASN[a],
			nsrc: int32(len(o.sources)),
			cats: o.cats,
			open: o.open,
			seen: o.seen,
		}
		if len(o.ports) == in.FollowUpCount {
			p := portObs{ports: o.ports}
			if o.syn != nil {
				p.p0f = in.FPDB.Classify(o.syn)
			}
			ports[a] = p
		}
	}

	return &Context{in: in, targets: targets, reachable: reachable, late: late, qminClients: qminClients, qminASNs: qminASNs, ports: ports}
}

// scratch is one observed target's transient Partition record.
type scratch struct {
	cats    uint8
	open    bool
	seen    uint8
	sources map[netip.Addr]bool
	// ports are the first FollowUpCount direct UDP follow-up ports and
	// syn the last captured TCP SYN, both in Hits order.
	ports []uint16
	syn   *packet.Packet
}

// follow folds what one timely hit on the target tells the middlebox
// (§3.6.1), port (§5.2-5.3) and forwarding (§5.4) accountings; asn is
// the target's AS.
func (o *scratch) follow(h *scanner.Hit, asn routing.ASN, in *Input) {
	// The registry's roles are the single source of truth: a client in
	// public-DNS space (AS.PublicService) explains the relay;
	// third-party upstream space carries no role and stays in
	// "Unexplained", as §3.6.1 requires.
	if origin := in.Reg.OriginOf(h.Client); origin != nil {
		if origin.ASN == asn {
			o.seen |= seenFromAS
		}
		if origin.PublicService {
			o.seen |= seenPublic
		}
	}
	direct := h.Client == h.Dst
	// §5.4: the zone is dual-stack, so direct/forwarded is judged on the
	// family-matching transport follow-ups only — a dual-stack resolver
	// probed at its v6 address answers v4-zone queries from its v4
	// address, which must not be mistaken for forwarding. And only
	// leaf-zone queries count: a v4-only (v6-only) zone is served by a
	// v4-only (v6-only) server, so genuine transport-probe queries
	// arrive over that family, while referral lookups at the dual-stack
	// parent can arrive over the other.
	if (h.Kind == scanner.ProbeV4 && h.Dst.Is4() && h.Client.Is4()) ||
		(h.Kind == scanner.ProbeV6 && h.Dst.Is6() && h.Client.Is6()) {
		if direct {
			o.seen |= seenDirect
		} else {
			o.seen |= seenForwarded
		}
	}
	// §5.2: only direct responders' ports are analyzed.
	if !direct {
		return
	}
	switch {
	case (h.Kind == scanner.ProbeV4 || h.Kind == scanner.ProbeV6) && h.Transport == authserver.TransportUDP:
		if o.ports == nil {
			o.ports = make([]uint16, 0, in.FollowUpCount)
		}
		if len(o.ports) < in.FollowUpCount {
			o.ports = append(o.ports, h.ClientPort)
		}
	case h.Kind == scanner.ProbeTC && h.Transport == authserver.TransportTCP && h.SYN != nil:
		o.syn = h.SYN
	}
}

// MergeContexts combines per-shard Partition outputs into one Context
// over in. Shards hold disjoint target sets and every per-target record
// in Partition is complete within its shard, and per-AS target counts
// add, so combining the per-shard maps reproduces exactly the Context a
// single Partition over the merged input would build — which is what
// lets the campaign runner reduce each shard's observations as soon as
// that shard finishes and discard its world. in needs no observation
// buffers: the reducers read only the merged maps and in's Geo and
// Bands. Nothing here is proportional to the survey's target count.
func MergeContexts(in Input, parts []*Context) *Context {
	in = in.withDefaults()
	if len(parts) == 1 {
		parts[0].in = in
		return parts[0]
	}
	nASes, nReach, nLate, nQC, nQA, nPorts := 0, 0, 0, 0, 0, 0
	for _, p := range parts {
		nASes += len(p.targets)
		nReach += len(p.reachable)
		nLate += len(p.late)
		nQC += len(p.qminClients)
		nQA += len(p.qminASNs)
		nPorts += len(p.ports)
	}
	merged := &Context{
		in:          in,
		targets:     make(map[routing.ASN]familyCounts, nASes),
		reachable:   make(map[netip.Addr]targetObs, nReach),
		late:        make(map[netip.Addr]routing.ASN, nLate),
		qminClients: make(map[netip.Addr]bool, nQC),
		qminASNs:    make(map[routing.ASN]bool, nQA),
		ports:       make(map[netip.Addr]portObs, nPorts),
	}
	for _, p := range parts {
		for asn, n := range p.targets {
			m := merged.targets[asn]
			m.v4 += n.v4
			m.v6 += n.v6
			merged.targets[asn] = m
		}
		for a, o := range p.reachable {
			merged.reachable[a] = o
		}
		for a, asn := range p.late {
			merged.late[a] = asn
		}
		for a := range p.qminClients {
			merged.qminClients[a] = true
		}
		for asn := range p.qminASNs {
			merged.qminASNs[asn] = true
		}
		for a, po := range p.ports {
			merged.ports[a] = po
		}
	}
	return merged
}

// computeSources is the §4.1 source-effectiveness distribution and §5.5
// infiltration headline.
func computeSources(c *Context, r *Report) {
	var nsrc4, nsrc6 []int
	for a, o := range c.reachable {
		n := int(o.nsrc)
		if a.Is4() {
			nsrc4 = append(nsrc4, n)
			if n <= 2 {
				r.OneOrTwoSourcesV4++
			}
			if n > 50 {
				r.Over50SourcesV4++
			}
		} else {
			nsrc6 = append(nsrc6, n)
			if n <= 2 {
				r.OneOrTwoSourcesV6++
			}
			if n > 50 {
				r.Over50SourcesV6++
			}
		}
		if o.has(scanner.CatDstAsSrc) {
			r.Infiltration.DstAsSrcAddrs++
		}
		if o.has(scanner.CatLoopback) {
			r.Infiltration.LoopbackAddrs++
		}
	}
	r.MedianSourcesV4 = stats.Median(nsrc4)
	r.MedianSourcesV6 = stats.Median(nsrc6)
}

// computeReachable emits the canonical reachable/open target lists
// (input to the ground-truth validation of Validate).
func computeReachable(c *Context, r *Report) {
	for a, o := range c.reachable {
		r.ReachableAddrs = append(r.ReachableAddrs, a)
		if o.open {
			r.OpenAddrs = append(r.OpenAddrs, a)
		}
	}
	sortAddrs(r.ReachableAddrs)
	sortAddrs(r.OpenAddrs)
}

// targetObs is one reachable target's compact observation record: its
// AS, the bitmask of spoofed-source categories that reached it, the
// distinct-source count, whether the non-spoofed open-resolver probe
// got through, and the seen bits of its timely hits' clients. A value
// type a few words wide — the merged reachable map stays a small
// multiple of the result size even at the paper's 12M-target scale
// (the old record carried two maps per target, and a survey-sized
// address→ASN index besides).
type targetObs struct {
	asn  routing.ASN
	nsrc int32
	cats uint8
	open bool
	seen uint8
}

// The seen bits of a targetObs.
const (
	// seenDirect and seenForwarded: a family-matched transport
	// follow-up (§5.4) came from the target itself, or from another
	// address.
	seenDirect uint8 = 1 << iota
	seenForwarded
	// seenFromAS and seenPublic: a timely hit's client lies in the
	// target's own AS, or in public-DNS space (§3.6.1).
	seenFromAS
	seenPublic
)

// portObs is a reachable target's complete §5.2 port sample: its first
// FollowUpCount direct UDP follow-up ports in hit order, and the p0f
// label of its last captured TCP SYN (LabelUnknown without one).
type portObs struct {
	ports []uint16
	p0f   fingerprint.Label
}

// familyCounts is one AS's admitted target count per address family.
type familyCounts struct{ v4, v6 int }

// catBit maps a spoofed-source category to its bit (the category
// constants are small consecutive ints; CatNotSpoofed is never stored).
func catBit(c scanner.SourceCategory) uint8 { return 1 << uint(c) }

// has reports whether sources of category c reached the target.
func (o targetObs) has(c scanner.SourceCategory) bool { return o.cats&catBit(c) != 0 }

// ncats counts the distinct categories that reached the target.
func (o targetObs) ncats() int { return bits.OnesCount8(o.cats) }

// sortAddrs orders addresses for deterministic output.
func sortAddrs(a []netip.Addr) {
	sort.Slice(a, func(i, j int) bool { return a[i].Less(a[j]) })
}
