package scanner

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/authserver"
	"repro/internal/detrand"
	"repro/internal/dnswire"
	"repro/internal/eventq"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

// Domain-separation salts for hash-derived randomness (band 11+,
// registered by the saltbands analyzer in internal/lint). Every draw
// the scanner makes is keyed on the target (and probe identity), never
// on a shared sequential stream, so a target's probe set is identical
// no matter which survey shard it lands in.
const (
	saltSources = 11 + iota
	saltPhase
	saltTxn
	saltSport
)

// SourceCategory classifies a spoofed source relative to its target
// (§3.2, Table 3).
type SourceCategory int

// The paper's five spoofed-source categories.
const (
	CatOtherPrefix SourceCategory = iota
	CatSamePrefix
	CatPrivate
	CatDstAsSrc
	CatLoopback
	CatNotSpoofed // the open-resolver probe's real source
)

// String names the category as in Table 3.
func (c SourceCategory) String() string {
	switch c {
	case CatOtherPrefix:
		return "Other Prefix"
	case CatSamePrefix:
		return "Same Prefix"
	case CatPrivate:
		return "Private"
	case CatDstAsSrc:
		return "Dst-as-Src"
	case CatLoopback:
		return "Loopback"
	case CatNotSpoofed:
		return "Not Spoofed"
	default:
		return "?"
	}
}

// Categorize recovers the category of a spoofed source for a target.
// scannerAddrs are the experiment's real client addresses (identifying
// the non-spoofed open-resolver probe). IPv4-mapped IPv6 addresses are
// unmapped first so ::ffff:192.0.2.1 categorizes as its embedded IPv4
// address would; invalid addresses (decode failures upstream) fall into
// the other-prefix bucket rather than comparing equal to each other.
//
//doors:hotpath
func Categorize(src, dst netip.Addr, scannerAddrs []netip.Addr) SourceCategory {
	src, dst = src.Unmap(), dst.Unmap()
	for _, a := range scannerAddrs {
		if a.IsValid() && src == a.Unmap() {
			return CatNotSpoofed
		}
	}
	if !src.IsValid() || !dst.IsValid() {
		return CatOtherPrefix
	}
	switch {
	case src == dst:
		return CatDstAsSrc
	case routing.IsLoopback(src):
		return CatLoopback
	case routing.IsPrivate(src):
		return CatPrivate
	case routing.SubnetOf(src) == routing.SubnetOf(dst):
		return CatSamePrefix
	default:
		return CatOtherPrefix
	}
}

// Target is one candidate resolver address.
type Target struct {
	Addr netip.Addr
	ASN  routing.ASN
}

// Hit is one fully-decoded experiment query observed at an
// authoritative server.
type Hit struct {
	// Recv is the arrival time at the authoritative server.
	Recv time.Duration
	// TS is the probe send time embedded in the query name.
	TS time.Duration
	// Lifetime is Recv - TS (§3.6.3's human-intervention filter input).
	Lifetime time.Duration
	// Src is the spoofed source of the inducing probe.
	Src netip.Addr
	// Dst is the probed target.
	Dst netip.Addr
	// ASN is the target's AS.
	ASN routing.ASN
	// Kind is the probe kind (main / v4 / v6 / tc).
	Kind ProbeKind
	// Client and ClientPort identify the querying resolver as seen at
	// the authoritative server.
	Client     netip.Addr
	ClientPort uint16
	// Transport is UDP or TCP.
	Transport authserver.Transport
	// SYN is the captured TCP SYN (TCP only).
	SYN *packet.Packet
}

// PartialHit is a QNAME-minimized (or otherwise partial) experiment
// query: attributable to a client but not to a target (§3.6.4).
type PartialHit struct {
	Recv   time.Duration
	Client netip.Addr
	Name   dnswire.Name
}

// LessHit is the canonical hit ordering (Recv first). Every field that
// distinguishes two observations participates, so sorting shard-local
// hit buffers by it and merging the sorted runs with a stable run-index
// tie-break (internal/runs) yields the same sequence no matter how the
// survey was sharded. It is the single definition of hit order: the
// per-shard sort, the k-way merge, and the sortedness checks all take
// it by reference.
//
//doors:hotpath
func LessHit(a, b *Hit) bool {
	switch {
	case a.Recv != b.Recv:
		return a.Recv < b.Recv
	case a.TS != b.TS:
		return a.TS < b.TS
	case a.Dst != b.Dst:
		return a.Dst.Less(b.Dst)
	case a.Src != b.Src:
		return a.Src.Less(b.Src)
	case a.ASN != b.ASN:
		return a.ASN < b.ASN
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.Client != b.Client:
		return a.Client.Less(b.Client)
	case a.ClientPort != b.ClientPort:
		return a.ClientPort < b.ClientPort
	default:
		return a.Transport < b.Transport
	}
}

// LessPartial is the canonical partial-hit ordering: (Recv, Client,
// Name). Like LessHit it is shared by the per-shard sort and the
// shard-run merge.
//
//doors:hotpath
func LessPartial(a, b *PartialHit) bool {
	switch {
	case a.Recv != b.Recv:
		return a.Recv < b.Recv
	case a.Client != b.Client:
		return a.Client.Less(b.Client)
	default:
		return a.Name < b.Name
	}
}

// SortHits orders hits canonically (see LessHit).
func SortHits(hits []Hit) {
	sort.SliceStable(hits, func(i, j int) bool { return LessHit(&hits[i], &hits[j]) })
}

// SortPartials orders partial hits canonically (see LessPartial).
func SortPartials(ps []PartialHit) {
	sort.SliceStable(ps, func(i, j int) bool { return LessPartial(&ps[i], &ps[j]) })
}

// Config tunes the scanner.
type Config struct {
	// Keyword tags this experiment's query names. Default "x1".
	Keyword string
	// MaxOtherPrefix caps other-prefix sources per target (97, §3.2).
	MaxOtherPrefix int
	// FollowUpCount is the number of v4-only and v6-only follow-up
	// queries (10, §3.5).
	FollowUpCount int
	// Rate is the probe rate in queries/second of virtual time (700,
	// §3.4).
	Rate float64
	// FollowUpSpacing separates consecutive follow-up queries.
	FollowUpSpacing time.Duration
	// V6HitList marks /64 prefixes with observed activity (the IPv6
	// "hit list" of §3.2, [21]): when selecting other-prefix IPv6
	// sources, hit-listed /64s are preferred over blind probing of the
	// sparsely populated space.
	V6HitList map[netip.Prefix]bool
	// Seed drives source selection and transaction IDs.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Keyword == "" {
		c.Keyword = "x1"
	}
	if c.MaxOtherPrefix == 0 {
		c.MaxOtherPrefix = 97
	}
	if c.FollowUpCount == 0 {
		c.FollowUpCount = 10
	}
	if c.Rate == 0 {
		c.Rate = 700
	}
	if c.FollowUpSpacing == 0 {
		c.FollowUpSpacing = time.Second
	}
	return c
}

// Stats counts scanner activity.
type Stats struct {
	TargetsAdmitted     int
	ExcludedSpecial     int
	ExcludedUnrouted    int
	ExcludedOptOut      int
	ProbesSent          uint64
	FollowUpSetsSent    uint64
	FollowUpQueries     uint64
	HitsObserved        uint64
	PartialHitsObserved uint64
}

// Add accumulates another scanner's counters (merging shard-local
// stats into a survey-wide total).
func (st *Stats) Add(o Stats) {
	st.TargetsAdmitted += o.TargetsAdmitted
	st.ExcludedSpecial += o.ExcludedSpecial
	st.ExcludedUnrouted += o.ExcludedUnrouted
	st.ExcludedOptOut += o.ExcludedOptOut
	st.ProbesSent += o.ProbesSent
	st.FollowUpSetsSent += o.FollowUpSetsSent
	st.FollowUpQueries += o.FollowUpQueries
	st.HitsObserved += o.HitsObserved
	st.PartialHitsObserved += o.PartialHitsObserved
}

// probePlan is one target's planned probes: its spoofed sources, a
// run of a chunk PlanWith copied them into, its phase in the window,
// and its index in Targets. The probe cursor keeps no state here: the
// running event's number names the plan and source (see Schedule). A
// plan lives as long as the shard, so it stays this small.
type probePlan struct {
	sources []netip.Addr
	phase   float64
	target  int32
}

// armBlock is one Schedule call's reservation: stride numbers from seq
// on for each plan from plan on, source j of plan plan+i under
// seq+i*stride+j.
type armBlock struct {
	seq    uint64
	plan   int
	stride uint64
}

// planChunk caps the addresses in one of PlanWith's source chunks.
const planChunk = 4096

// Scanner is the measurement client.
type Scanner struct {
	Host         *netsim.Host
	Addr4, Addr6 netip.Addr
	Reg          *routing.Registry
	Cfg          Config
	Stats        Stats

	// Targets is the admitted target list.
	Targets []Target
	// Hits and Partials accumulate observations.
	Hits     []Hit
	Partials []PartialHit

	// FollowUp, when non-nil, is invoked once per target on its first
	// timely spoofed full-name main-probe hit (§3.5). The default
	// survey installs ScheduleFollowUps here; a campaign that wants a
	// different characterization step — or none, like the inbound-SAV
	// scan — installs its own hook or leaves it nil. The once-per-target
	// gating lives in the monitor, not the hook.
	FollowUp func(Decoded)

	seed     uint64
	window   time.Duration // Schedule's campaign window
	followed map[netip.Addr]bool
	optOut   []netip.Prefix
	plans    []probePlan
	armed    int            // plans[:armed] are on the event queue
	blocks   []armBlock     // one per Schedule call that armed plans
	fire     eventq.Event   // sendNext, bound by Attach: every plan's probe cursor
	sets     []*followUpSet // follow-up set records whose sends are done
	nameBuf  []byte         // scratch: wire-form probe name
	msgBuf   []byte         // scratch: packed query message
	// tails holds the wire form of keyword.zone per probe kind, encoded
	// once by New; nil when the keyword makes no valid name.
	tails [ProbeTC + 1][]byte

	// hitList is Cfg.V6HitList's subnets in address order, built on the
	// first IPv6 SourcesFor; the hit list must not change after that.
	hitList []netip.Prefix
	// SourcesFor's scratch, reused across targets: the subnets already
	// drawn from, the hit-listed candidates, and the sources themselves.
	seen map[netip.Prefix]bool
	hot  []netip.Prefix
	srcs []netip.Addr
	rng  *rand.Rand // targetRand's generator
}

// New creates a scanner on host (whose AS must lack OSAV) monitoring
// the given authoritative servers in real time: a planner attached to
// its host.
func New(host *netsim.Host, addr4, addr6 netip.Addr, reg *routing.Registry, auths []*authserver.Server, cfg Config) (*Scanner, error) {
	s := NewPlanner(reg, cfg)
	if err := s.Attach(host, addr4, addr6, auths); err != nil {
		return nil, err
	}
	return s, nil
}

// NewPlanner creates a host-less scanner usable only for AdmitOne,
// Count, Plan and PlanWith — the campaign runner's world-free counting
// pass, and its pass-B admission while the shard's world is still being
// built. Count and the plans depend solely on the admitted targets, the
// registry, and the config, so a planner's probe count (and per-target
// source plans) matches the full scanner's exactly; Schedule and the
// authoritative-server monitor need a host, which Attach provides.
func NewPlanner(reg *routing.Registry, cfg Config) *Scanner {
	return &Scanner{
		Reg:      reg,
		Cfg:      cfg.withDefaults(),
		seed:     uint64(cfg.Seed),
		followed: make(map[netip.Addr]bool),
	}
}

// Attach puts a planner on host (whose AS must lack OSAV) at the given
// addresses and makes it monitor the given authoritative servers in
// real time. Targets admitted before Attach stay admitted. When it
// fails, it has changed neither the scanner nor any server.
func (s *Scanner) Attach(host *netsim.Host, addr4, addr6 netip.Addr, auths []*authserver.Server) error {
	if host.AS.OSAV {
		return fmt.Errorf("scanner: host AS %v applies OSAV; spoofed probes would not leave (§3.4)", host.AS.ASN)
	}
	for _, a := range auths {
		if a.OnQuery != nil {
			return fmt.Errorf("scanner: auth server %s already monitored", a.Host.Name)
		}
	}
	s.Host, s.Addr4, s.Addr6 = host, addr4, addr6
	s.fire = s.sendNext
	for _, a := range auths {
		a.OnQuery = s.monitor
	}
	for k := range s.tails {
		s.tails[k], _ = dnswire.AppendName(nil, dnswire.Name(s.Cfg.Keyword)+"."+zoneFor(ProbeKind(k)))
	}
	return nil
}

// OptOut excludes a prefix from all future probing (§3.8).
func (s *Scanner) OptOut(p netip.Prefix) { s.optOut = append(s.optOut, p) }

//doors:hotpath
func (s *Scanner) optedOut(a netip.Addr) bool {
	for _, p := range s.optOut {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// AdmitHint presizes the target list for n upcoming candidates, so a
// streaming admission (AdmitOne per candidate straight off a population
// view, no intermediate slice) appends without growth copies. A no-op
// once admission has begun.
func (s *Scanner) AdmitHint(n int) {
	if s.Targets == nil {
		s.Targets = make([]Target, 0, n)
	}
}

// admitVerdict is the outcome of the §3.1 admission predicate.
type admitVerdict uint8

const (
	admitOK admitVerdict = iota
	admitSpecial
	admitUnrouted
	admitOptOut
)

// admitVerdict is the one definition of the admission predicate, in
// filter order: AdmitOne, the campaign runner's streaming admission,
// and AdmitCheck both reach it. An admitted address comes back with
// its origin AS, from the one route lookup the predicate makes.
func (s *Scanner) admitVerdict(a netip.Addr) (admitVerdict, *routing.AS) {
	if routing.IsSpecialPurpose(a) {
		return admitSpecial, nil
	}
	as := s.Reg.OriginOf(a)
	switch {
	case as == nil:
		return admitUnrouted, nil
	case s.optedOut(a):
		return admitOptOut, nil
	default:
		return admitOK, as
	}
}

// AdmitOne applies the §3.1 admission filter to a single candidate,
// recording the outcome: the target list grows on admission, the stats
// count either way.
func (s *Scanner) AdmitOne(a netip.Addr) {
	switch v, as := s.admitVerdict(a); v {
	case admitSpecial:
		s.Stats.ExcludedSpecial++
	case admitUnrouted:
		s.Stats.ExcludedUnrouted++
	case admitOptOut:
		s.Stats.ExcludedOptOut++
	default:
		s.Targets = append(s.Targets, Target{Addr: a, ASN: as.ASN})
		s.Stats.TargetsAdmitted++
	}
}

// AdmitCheck applies the admission predicate without recording
// anything: it reports whether a would be admitted and the Target it
// would become, reflecting the scanner's opt-out state at call time.
// No engine code calls it since the reduce reads per-AS target counts
// instead of re-deriving the target stream; it stays only for
// perfbench's traced replay (perfbench/replay.go) and goes with it.
func (s *Scanner) AdmitCheck(a netip.Addr) (Target, bool) {
	v, as := s.admitVerdict(a)
	if v != admitOK {
		return Target{}, false
	}
	return Target{Addr: a, ASN: as.ASN}, true
}

// SealRuns seals the observation buffers into canonically sorted runs
// (LessHit / LessPartial order). The campaign runner calls it on the
// shard's own goroutine the moment the shard's simulation finishes, so
// the sorts parallelize with other shards' simulations and the merge
// stage only ever sees sorted runs — which is what lets it stream
// instead of re-sorting a concatenation.
func (s *Scanner) SealRuns() {
	SortHits(s.Hits)
	SortPartials(s.Partials)
}

// targetRand returns the private RNG stream for a target: seeded from
// the target's identity, so the draws a target receives do not depend
// on how many other targets were processed before it. The stream is
// the scanner's one generator, reseeded, valid until the next call.
func (s *Scanner) targetRand(a netip.Addr) *rand.Rand {
	if s.rng == nil {
		s.rng = detrand.Rand()
	}
	hi, lo := detrand.AddrWords(a)
	detrand.Reseed(s.rng, s.seed, hi, lo, saltSources)
	return s.rng
}

// hotSubnets returns the hit-listed subnets inside prefixes other than
// own, in address order, in the scanner's scratch; a subnet inside two
// nested prefixes appears twice. Each prefix's subnets are one
// contiguous run of the sorted hit list, found by binary search, so a
// target costs O(prefixes · log list + hits) rather than a pass over
// the list.
func (s *Scanner) hotSubnets(prefixes []netip.Prefix, own netip.Prefix) []netip.Prefix {
	if s.hitList == nil {
		s.hitList = make([]netip.Prefix, 0, len(s.Cfg.V6HitList))
		for sub := range s.Cfg.V6HitList {
			s.hitList = append(s.hitList, sub)
		}
		slices.SortFunc(s.hitList, comparePrefix)
	}
	hot := s.hot[:0]
	for _, p := range prefixes {
		first := p.Masked().Addr()
		i, _ := slices.BinarySearchFunc(s.hitList, first, func(sub netip.Prefix, a netip.Addr) int {
			return sub.Addr().Compare(a)
		})
		for ; i < len(s.hitList) && p.Contains(s.hitList[i].Addr()); i++ {
			if s.hitList[i] != own {
				hot = append(hot, s.hitList[i])
			}
		}
	}
	slices.SortFunc(hot, comparePrefix) // runs of unordered or nested prefixes interleave
	s.hot = hot
	return hot
}

// comparePrefix orders prefixes by address, then length.
func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// SourcesFor generates the spoofed sources for a target (§3.2): up to
// MaxOtherPrefix other-prefix addresses, one same-prefix address, the
// private/unique-local address, the target itself, and loopback. The
// slice is the scanner's scratch, valid until its next SourcesFor call.
func (s *Scanner) SourcesFor(t Target) []netip.Addr {
	as := s.Reg.AS(t.ASN)
	v6 := t.Addr.Is6()
	rng := s.targetRand(t.Addr)
	limit := s.Cfg.MaxOtherPrefix
	sources := s.srcs[:0]

	own := routing.SubnetOf(t.Addr)
	var prefixes []netip.Prefix
	if v6 {
		prefixes = as.V6Prefixes()
	} else {
		prefixes = as.V4Prefixes()
	}
	// Candidate subnets, one source drawn from each until the cap: for
	// IPv6, hit-listed /64s come first (§3.2: preference for prefixes with
	// observed activity — the hit list can name /64s far beyond what
	// blind low-to-high enumeration reaches).
	if s.seen == nil {
		s.seen = make(map[netip.Prefix]bool)
	}
	clear(s.seen)
	if v6 && len(s.Cfg.V6HitList) > 0 {
		for _, sub := range s.hotSubnets(prefixes, own) {
			if len(sources) == limit {
				break
			}
			if !s.seen[sub] {
				s.seen[sub] = true
				sources = append(sources, routing.RandomHostAddr(sub, rng))
			}
		}
	}
	for _, p := range prefixes {
		for j, n := 0, routing.SubnetCount(p, limit+1); j < n && len(sources) < limit; j++ {
			if sub := routing.SubnetAt(p, j); sub != own && !s.seen[sub] {
				s.seen[sub] = true
				sources = append(sources, routing.RandomHostAddr(sub, rng))
			}
		}
	}

	// Same prefix, distinct from the target itself.
	for tries := 0; tries < 16; tries++ {
		a := routing.RandomHostAddr(own, rng)
		if a != t.Addr {
			sources = append(sources, a)
			break
		}
	}

	if v6 {
		sources = append(sources, netip.MustParseAddr("fc00::10"))
	} else {
		sources = append(sources, netip.MustParseAddr("192.168.0.10"))
	}
	sources = append(sources, t.Addr) // destination-as-source
	if v6 {
		sources = append(sources, netip.MustParseAddr("::1"))
	} else {
		sources = append(sources, netip.MustParseAddr("127.0.0.1"))
	}
	s.srcs = sources
	return sources
}

// Count returns the number of probes Plan would schedule for the
// admitted targets, keeping no plan. The campaign runner sums every
// shard's Count into the campaign window before any shard plans.
func (s *Scanner) Count() int {
	n := 0
	for _, t := range s.Targets {
		n += len(s.SourcesFor(t))
	}
	return n
}

// Plan plans every admitted target's §3.2 spoofed sources (SourcesFor)
// and returns the number of probes planned, Count's total.
func (s *Scanner) Plan() int {
	total := s.PlanWith(saltPhase, s.SourcesFor)
	if s.Hits == nil {
		s.Hits = make([]Hit, 0, 2*len(s.Targets))
	}
	return total
}

// PlanWith plans every admitted target's probes for one campaign phase:
// sources returns the target's spoofed sources, and salt, the phase's,
// keys the target's phase in the campaign window. The plan keeps a copy
// of the sources, so sources may return its own scratch. A target
// without a source gets no plan. PlanWith returns the number of probes
// planned; the next Schedule arms them after every plan made before.
//
// The copies are cut from chunks PlanWith allocates, each sized for
// what is left to plan at the current target's source count, up to
// planChunk addresses. A chunk is never grown, so no copy moves and no
// chunk holds twice the addresses it needs; it is freed once every
// plan cut from it has sent its last probe.
func (s *Scanner) PlanWith(salt uint64, sources func(Target) []netip.Addr) int {
	s.plans = slices.Grow(s.plans, len(s.Targets))
	total := 0
	var chunk []netip.Addr
	for i, t := range s.Targets {
		srcs := sources(t)
		n := len(srcs)
		if n == 0 {
			continue
		}
		if cap(chunk)-len(chunk) < n {
			chunk = make([]netip.Addr, 0, max(n, min(planChunk, n*(len(s.Targets)-i))))
		}
		at := len(chunk)
		chunk = append(chunk, srcs...)
		hi, lo := detrand.AddrWords(t.Addr)
		s.plans = append(s.plans, probePlan{
			sources: chunk[at:len(chunk):len(chunk)],
			phase:   detrand.Float64(s.seed, hi, lo, salt),
			target:  int32(i),
		})
		total += n
	}
	return total
}

// CampaignDuration converts a survey-wide probe count into the campaign
// duration at the configured rate (§3.4).
func CampaignDuration(total int, rate float64) time.Duration {
	if total == 0 {
		return 0
	}
	d := time.Duration(float64(total) / rate * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Schedule arms every plan made since its last call, spreading each
// target's probes evenly over the campaign window at the target's
// phase. Every call must pass the same window, derived from every
// shard's count, so probe timestamps depend on the global campaign,
// not the shard split. A target keeps one pending event, its probe
// cursor: each send re-arms the cursor for the target's next source
// under the schedule-order number Schedule reserved for it, so probes
// run at the instants and in the order enqueueing them all up front
// would give, ties included, while the queue holds one event per
// target instead of one per probe.
//
// A call reserves one block of numbers, a fixed stride per plan (its
// plans' most sources), and arms every cursor with the scanner's one
// bound sendNext. Plan by plan and source by source, the block orders
// probes as a run reserved per plan would, and sendNext finds its plan
// and source from the running event's number.
func (s *Scanner) Schedule(window time.Duration) {
	q := s.Host.Network().Q
	s.window = window
	plans := s.plans[s.armed:]
	if len(plans) == 0 {
		return
	}
	b := armBlock{plan: s.armed}
	for i := range plans {
		b.stride = max(b.stride, uint64(len(plans[i].sources)))
	}
	b.seq = q.Reserve(int(b.stride) * len(plans))
	s.blocks = append(s.blocks, b)
	for i := range plans {
		q.AtSeq(s.probeAt(&plans[i], 0), b.seq+uint64(i)*b.stride, s.fire)
	}
	s.armed = len(s.plans)
}

// probeAt is the send time of plan p's source j: (j+phase)/k of the
// window, for k sources.
func (s *Scanner) probeAt(p *probePlan, j int) time.Duration {
	return time.Duration((float64(j) + p.phase) / float64(len(p.sources)) * float64(s.window))
}

// sendNext is every plan's probe cursor: the running event's number
// names the plan and source to send, in the newest Schedule block at or
// below it. It sends that source's probe and re-arms for the next under
// the next number.
//
//doors:hotpath
func (s *Scanner) sendNext(now time.Duration) {
	q := s.Host.Network().Q
	seq := q.Running()
	k := len(s.blocks) - 1
	for s.blocks[k].seq > seq {
		k--
	}
	b := &s.blocks[k]
	off := seq - b.seq
	p := &s.plans[b.plan+int(off/b.stride)]
	j := int(off % b.stride)
	src := p.sources[j]
	if j+1 < len(p.sources) {
		q.AtSeq(s.probeAt(p, j+1), seq+1, s.fire)
	} else {
		// The target's last probe: the plan lets go of its sources,
		// which would otherwise live as long as the shard.
		p.sources = nil
	}
	s.SendProbe(now, src, s.Targets[p.target], ProbeMain)
}

// probeIDs derives the transaction ID and source port for a probe from
// its identity (send time, spoofed source, target, kind): deterministic
// and shard-invariant, no shared counter or RNG stream.
//
//doors:hotpath
func (s *Scanner) probeIDs(now time.Duration, src, dst netip.Addr, kind ProbeKind) (txn uint16, sport uint16) {
	sh, sl := detrand.AddrWords(src)
	dh, dl := detrand.AddrWords(dst)
	h := detrand.Mix(s.seed, uint64(now), sh, sl, dh, dl, uint64(kind))
	txn = uint16(detrand.Mix(h, saltTxn))
	sport = uint16(40000 + detrand.Mix(h, saltSport)%20000)
	return txn, sport
}

// SendProbe emits one spoofed-source (or, for a real-source probe like
// the open-resolver check, unspoofed) DNS query at virtual time now.
// Scheduled probes of every campaign phase and follow-ups all send
// through it. It writes the query name
// straight to wire form, the bytes EncodeQName packed by dnswire would
// give. IDs and the encoded name derive from the probe's identity, so
// the emission is shard-invariant.
func (s *Scanner) SendProbe(now time.Duration, src netip.Addr, t Target, kind ProbeKind) {
	if s.optedOut(t.Addr) {
		return
	}
	zone := kind
	if zone < ProbeMain || zone > ProbeTC {
		zone = ProbeMain // zoneFor's default zone
	}
	tail := s.tails[zone]
	if tail == nil {
		return
	}
	nb := appendTSLabel(s.nameBuf[:0], now)
	srcAt := len(nb)
	nb = appendAddrWire(nb, src)
	dstAt := len(nb)
	nb = appendAddrWire(nb, t.Addr)
	asnAt := len(nb)
	nb = append(nb, 0)
	nb = strconv.AppendUint(nb, uint64(t.ASN), 10)
	nb[asnAt] = byte(len(nb) - asnAt - 1)
	nb = append(nb, tail...)
	s.nameBuf = nb
	if dstAt-srcAt-1 > maxLabel || asnAt-dstAt-1 > maxLabel || len(nb) > maxName {
		return // an address label or the name is too long to pack
	}
	s.send(now, src, t, kind)
}

// The wire-form limits of a DNS name (RFC 1035 §2.3.4).
const (
	maxLabel = 63
	maxName  = 255
)

// appendTSLabel appends the probe's timestamp label, in wire form.
func appendTSLabel(b []byte, now time.Duration) []byte {
	at := len(b)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(now), 10)
	b[at] = byte(len(b) - at - 1)
	return b
}

// appendAddrWire appends a's label (see AppendAddrLabel) in wire form,
// behind its length octet.
func appendAddrWire(b []byte, a netip.Addr) []byte {
	at := len(b)
	b = append(b, 0)
	b = AppendAddrLabel(b, a)
	b[at] = byte(len(b) - at - 1)
	return b
}

// send packs the query for the name in nameBuf and sends it from src to
// the target's port 53, counting it once the network takes it.
//
//doors:hotpath
func (s *Scanner) send(now time.Duration, src netip.Addr, t Target, kind ProbeKind) {
	txn, sport := s.probeIDs(now, src, t.Addr, kind)
	s.msgBuf = dnswire.AppendQuery(s.msgBuf[:0], txn, s.nameBuf, dnswire.TypeA)
	//lint:allow hotalloc -- Host is the netsim boundary: a datagram that can arrive, or that a loss or fault draw reads, is written on a flight record the network got back, Packet and bytes, so only the network's first records, or a datagram longer than a record's bytes, allocate; one its addresses doom with nothing to read it is only counted
	if s.Host.SendUDP(src, sport, t.Addr, 53, s.msgBuf) == nil {
		s.Stats.ProbesSent++
	}
}

// monitor is the authoritative servers' real-time query hook (§3.5):
// the first full-name hit for a target triggers its one-time FollowUp
// hook (the campaign's characterization step), when one is installed.
func (s *Scanner) monitor(e authserver.LogEntry) {
	d, full, partial := DecodeQName(e.Name, s.Cfg.Keyword)
	switch {
	case full:
		hit := Hit{
			Recv: e.Time, TS: d.TS, Lifetime: e.Time - d.TS,
			Src: d.Src, Dst: d.Dst, ASN: d.ASN, Kind: d.Kind,
			Client: e.Client, ClientPort: e.ClientPort,
			Transport: e.Transport, SYN: e.SYN,
		}
		s.Hits = append(s.Hits, hit)
		s.Stats.HitsObserved++
		if d.Kind == ProbeMain && s.FollowUp != nil && !s.followed[d.Dst] && Categorize(d.Src, d.Dst, []netip.Addr{s.Addr4, s.Addr6}) != CatNotSpoofed {
			s.followed[d.Dst] = true
			s.FollowUp(d)
		}
	case partial:
		s.Partials = append(s.Partials, PartialHit{Recv: e.Time, Client: e.Client, Name: e.Name})
		s.Stats.PartialHitsObserved++
	}
}

// ScheduleFollowUps sends the §3.5 follow-up set using the spoofed
// source that worked: FollowUpCount each of IPv4-only and IPv6-only
// queries, one non-spoofed open-resolver probe, and one TCP-eliciting
// (truncated) probe, FollowUpSpacing apart from now on. It is the
// default FollowUp hook, installed by the survey campaign's
// characterization phase.
//
// The set runs on a record from the scanner's free list. It reserves
// the set's numbers now and arms one send at a time under them, so the
// sends run where the set's events would run had they all been
// scheduled now.
func (s *Scanner) ScheduleFollowUps(d Decoded) {
	s.Stats.FollowUpSetsSent++
	var f *followUpSet
	if k := len(s.sets); k > 0 {
		f = s.sets[k-1]
		s.sets = s.sets[:k-1]
	} else {
		f = &followUpSet{s: s}
		f.fire = f.send
	}
	f.t, f.src, f.sent = Target{Addr: d.Dst, ASN: d.ASN}, d.Src, 0
	// Open-resolver probe: real source (§3.5, §5.1).
	f.open = s.Addr4
	if d.Dst.Is6() {
		f.open = s.Addr6
	}
	f.n = 2*max(s.Cfg.FollowUpCount, 0) + 1
	if f.open.IsValid() {
		f.n++
	}
	q := s.Host.Network().Q
	f.seq = q.Reserve(f.n)
	q.AtSeq(q.Now()+s.Cfg.FollowUpSpacing, f.seq, f.fire)
}

// followUpSet is one target's follow-up set in flight: the target, the
// spoofed source that worked, the real source for the open-resolver
// probe (invalid when the scanner has no address of the target's
// family), the number of the next send and how many of the set's n
// sends are done. Its one event, bound once per record, sends and
// re-arms until the last send puts the record back.
type followUpSet struct {
	s         *Scanner
	fire      eventq.Event // send, bound once per record
	t         Target
	src, open netip.Addr
	seq       uint64
	sent, n   int
}

// send sends the set's next probe and re-arms FollowUpSpacing later:
// FollowUpCount IPv4-only queries, as many IPv6-only ones, the
// open-resolver probe when the set has one, then the TCP probe, through
// the always-truncate zone.
//
//doors:hotpath
func (f *followUpSet) send(now time.Duration) {
	s, t, src, kind := f.s, f.t, f.src, ProbeTC
	c := max(s.Cfg.FollowUpCount, 0)
	switch k := f.sent; {
	case k < c:
		kind = ProbeV4
	case k < 2*c:
		kind = ProbeV6
	case k == 2*c && f.open.IsValid():
		src, kind = f.open, ProbeMain
	}
	if f.sent++; f.sent < f.n {
		f.seq++
		s.Host.Network().Q.AtSeq(now+s.Cfg.FollowUpSpacing, f.seq, f.fire)
	} else {
		s.sets = append(s.sets, f)
	}
	s.Stats.FollowUpQueries++
	s.SendProbe(now, src, t, kind)
}
