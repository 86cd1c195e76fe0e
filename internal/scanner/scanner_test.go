package scanner

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/authserver"
	"repro/internal/detrand"
	"repro/internal/dnswire"
	"repro/internal/eventq"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestEncodeDecodeAddrV4(t *testing.T) {
	a := addr("198.51.100.7")
	label := EncodeAddr(a)
	if label != "v4-198-51-100-7" {
		t.Fatalf("label = %q", label)
	}
	got, err := DecodeAddr(label)
	if err != nil || got != a {
		t.Fatalf("decode = %v, %v", got, err)
	}
}

func TestEncodeDecodeAddrV6(t *testing.T) {
	for _, s := range []string{"2001:db8::53", "::1", "2a00:1:2:3::ff", "fc00::10"} {
		a := addr(s)
		got, err := DecodeAddr(EncodeAddr(a))
		if err != nil || got != a {
			t.Fatalf("round trip %s -> %q -> %v, %v", s, EncodeAddr(a), got, err)
		}
	}
}

// TestAppendAddrLabel pins the label of each address form and requires
// DecodeAddr to parse it. A 4-in-6 address's dots become '-' like its
// colons, so its label decodes to a different IPv6 address.
func TestAppendAddrLabel(t *testing.T) {
	for _, c := range []struct{ addr, label, decoded string }{
		{"198.51.100.7", "v4-198-51-100-7", "198.51.100.7"},
		{"2001:db8::53", "v6-2001-db8--53", "2001:db8::53"},
		{"::ffff:192.0.2.1", "v6---ffff-192-0-2-1", "::ffff:192:0:2:1"},
		{"::", "v6---", "::"},
	} {
		a := addr(c.addr)
		got := AppendAddrLabel([]byte("x."), a)
		if string(got) != "x."+c.label {
			t.Errorf("AppendAddrLabel(%s) appended %q, want %q", c.addr, got[2:], c.label)
		}
		if enc := EncodeAddr(a); enc != c.label {
			t.Errorf("EncodeAddr(%s) = %q, want %q", c.addr, enc, c.label)
		}
		if dec, err := DecodeAddr(c.label); err != nil || dec != addr(c.decoded) {
			t.Errorf("DecodeAddr(%q) = %v, %v; want %s", c.label, dec, err, c.decoded)
		}
	}
}

func TestDecodeAddrRejectsJunk(t *testing.T) {
	for _, s := range []string{"", "x4-1-2-3-4", "v4-1-2-3", "v6-zz", "v4-300-1-1-1", "v4-::1", "v4-1:2::3", "v6-1.2.3.4"} {
		if _, err := DecodeAddr(s); err == nil {
			t.Errorf("DecodeAddr(%q) accepted", s)
		}
	}
}

func TestQNameRoundTrip(t *testing.T) {
	for _, kind := range []ProbeKind{ProbeMain, ProbeV4, ProbeV6, ProbeTC} {
		name := EncodeQName(1234567890, addr("203.0.113.7"), addr("198.51.100.53"), 64500, "x1", kind)
		d, full, partial := DecodeQName(name, "x1")
		if !full || partial {
			t.Fatalf("kind %v: full=%v partial=%v for %q", kind, full, partial, name)
		}
		if d.TS != 1234567890 || d.Src != addr("203.0.113.7") || d.Dst != addr("198.51.100.53") ||
			d.ASN != 64500 || d.Kind != kind {
			t.Fatalf("kind %v decoded %+v", kind, d)
		}
	}
}

func TestQNameV6RoundTrip(t *testing.T) {
	name := EncodeQName(5, addr("::1"), addr("2a00:1:2::53"), 7, "kw9", ProbeV6)
	d, full, _ := DecodeQName(name, "kw9")
	if !full || d.Src != addr("::1") || d.Dst != addr("2a00:1:2::53") {
		t.Fatalf("decoded %+v full=%v from %q", d, full, name)
	}
}

func TestQNamePartialMinimized(t *testing.T) {
	// A QNAME-minimizing resolver asks for kw.dns-lab.org first.
	d, full, partial := DecodeQName("x1.dns-lab.org", "x1")
	if full || !partial {
		t.Fatalf("full=%v partial=%v", full, partial)
	}
	if d.Kw != "x1" {
		t.Fatalf("kw = %q", d.Kw)
	}
	// Deeper minimized steps also count as partial.
	_, full, partial = DecodeQName("64500.x1.dns-lab.org", "x1")
	if full || !partial {
		t.Fatal("asn.kw partial not recognized")
	}
	// So does a five-label name whose v4- source is an IPv6 address.
	if d, full, partial := DecodeQName("1.v4-::1.v4-1-2-3-4.5.x1.dns-lab.org", "x1"); full || !partial {
		t.Fatalf("IPv6 source under a v4- tag decoded as %+v, full=%v partial=%v", d, full, partial)
	}
}

func TestQNameForeignIgnored(t *testing.T) {
	for _, n := range []dnswire.Name{"www.example.com", "dns-lab.org", "a.b.other.org", "ts.s.d.a.WRONGKW.dns-lab.org"} {
		_, full, partial := DecodeQName(n, "x1")
		if full || partial {
			t.Errorf("%q misrecognized (full=%v partial=%v)", n, full, partial)
		}
	}
}

func TestQuickQNameRoundTrip(t *testing.T) {
	f := func(ts int64, srcSeed, dstSeed uint32, asn uint16) bool {
		if ts < 0 {
			ts = -ts
		}
		src := netip.AddrFrom4([4]byte{byte(srcSeed>>24) | 1, byte(srcSeed >> 16), byte(srcSeed >> 8), byte(srcSeed)})
		dst := netip.AddrFrom4([4]byte{byte(dstSeed>>24) | 1, byte(dstSeed >> 16), byte(dstSeed >> 8), byte(dstSeed)})
		name := EncodeQName(time.Duration(ts), src, dst, routing.ASN(asn), "kw", ProbeMain)
		d, full, _ := DecodeQName(name, "kw")
		return full && d.TS == time.Duration(ts) && d.Src == src && d.Dst == dst && d.ASN == routing.ASN(asn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCategorize(t *testing.T) {
	dst := addr("198.51.100.53")
	scanners := []netip.Addr{addr("223.254.0.10")}
	cases := []struct {
		src  string
		want SourceCategory
	}{
		{"198.51.100.53", CatDstAsSrc},
		{"127.0.0.1", CatLoopback},
		{"192.168.0.10", CatPrivate},
		{"198.51.100.9", CatSamePrefix},
		{"198.51.99.9", CatOtherPrefix},
		{"223.254.0.10", CatNotSpoofed},
	}
	for _, c := range cases {
		if got := Categorize(addr(c.src), dst, scanners); got != c.want {
			t.Errorf("Categorize(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestCategorizeMappedV4(t *testing.T) {
	// IPv4-mapped IPv6 forms must categorize as their embedded IPv4
	// address would: a decoder upstream may hand back either form.
	dst := addr("198.51.100.53")
	cases := []struct {
		src  string
		want SourceCategory
	}{
		{"::ffff:198.51.100.53", CatDstAsSrc},
		{"::ffff:192.168.0.10", CatPrivate},
		{"::ffff:127.0.0.1", CatLoopback},
		{"::ffff:198.51.100.9", CatSamePrefix},
		{"::ffff:203.0.113.9", CatOtherPrefix},
	}
	for _, c := range cases {
		if got := Categorize(addr(c.src), dst, nil); got != c.want {
			t.Errorf("Categorize(%s) = %v, want %v", c.src, got, c.want)
		}
	}
	// A mapped form of the scanner's own address is still not spoofed.
	scanners := []netip.Addr{addr("223.254.0.10")}
	if got := Categorize(addr("::ffff:223.254.0.10"), dst, scanners); got != CatNotSpoofed {
		t.Errorf("mapped scanner addr = %v, want CatNotSpoofed", got)
	}
	// And a mapped destination compares equal to its v4 source.
	if got := Categorize(addr("198.51.100.53"), addr("::ffff:198.51.100.53"), nil); got != CatDstAsSrc {
		t.Errorf("mapped dst = %v, want CatDstAsSrc", got)
	}
}

func TestCategorizeInvalidAddrs(t *testing.T) {
	// Invalid addresses (upstream decode failures) must not panic and
	// must not compare equal to each other as dst-as-src.
	var invalid netip.Addr
	dst := addr("198.51.100.53")
	if got := Categorize(invalid, dst, nil); got != CatOtherPrefix {
		t.Errorf("invalid src = %v, want CatOtherPrefix", got)
	}
	if got := Categorize(dst, invalid, nil); got != CatOtherPrefix {
		t.Errorf("invalid dst = %v, want CatOtherPrefix", got)
	}
	if got := Categorize(invalid, invalid, nil); got != CatOtherPrefix {
		t.Errorf("both invalid = %v, want CatOtherPrefix", got)
	}
	// An invalid entry in the scanner list is skipped, not matched.
	if got := Categorize(invalid, dst, []netip.Addr{invalid}); got != CatOtherPrefix {
		t.Errorf("invalid scanner entry = %v, want CatOtherPrefix", got)
	}
}

func TestCategorizeV6(t *testing.T) {
	dst := addr("2a00:5::53")
	cases := []struct {
		src  string
		want SourceCategory
	}{
		{"::1", CatLoopback},
		{"fc00::10", CatPrivate},
		{"2a00:5::53", CatDstAsSrc},
		{"2a00:5::beef", CatSamePrefix}, // same /64
		{"2a00:5:0:1::1", CatOtherPrefix},
	}
	for _, c := range cases {
		if got := Categorize(addr(c.src), dst, nil); got != c.want {
			t.Errorf("Categorize(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func newTestScanner(t *testing.T) *Scanner {
	t.Helper()
	reg := routing.NewRegistry()
	as := &routing.AS{ASN: 64500, Prefixes: []netip.Prefix{
		prefix("5.1.0.0/22"), prefix("5.1.8.0/24"), prefix("2a00:5::/48"),
	}}
	big := &routing.AS{ASN: 64501, Prefixes: []netip.Prefix{prefix("6.0.0.0/16")}}
	if err := reg.Add(as); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(big); err != nil {
		t.Fatal(err)
	}
	return &Scanner{Reg: reg, Cfg: Config{}.withDefaults(), seed: 1, followed: map[netip.Addr]bool{}}
}

func TestSourcesForCategories(t *testing.T) {
	s := newTestScanner(t)
	tgt := Target{Addr: addr("5.1.1.77"), ASN: 64500}
	sources := s.SourcesFor(tgt)
	// 5 /24s total, one is the target's own: 4 other-prefix + same +
	// private + dst + loopback = 8.
	if len(sources) != 8 {
		t.Fatalf("sources = %d: %v", len(sources), sources)
	}
	counts := map[SourceCategory]int{}
	for _, src := range sources {
		counts[Categorize(src, tgt.Addr, nil)]++
	}
	if counts[CatOtherPrefix] != 4 || counts[CatSamePrefix] != 1 ||
		counts[CatPrivate] != 1 || counts[CatDstAsSrc] != 1 || counts[CatLoopback] != 1 {
		t.Fatalf("category counts = %v", counts)
	}
	for _, src := range sources {
		if Categorize(src, tgt.Addr, nil) == CatSamePrefix && src == tgt.Addr {
			t.Fatal("same-prefix source equals the target")
		}
	}
}

func TestSourcesForCapsAt97(t *testing.T) {
	s := newTestScanner(t)
	tgt := Target{Addr: addr("6.0.50.10"), ASN: 64501} // /16: 256 /24s
	sources := s.SourcesFor(tgt)
	if len(sources) != 97+4 {
		t.Fatalf("sources = %d, want 101 (the paper's cap)", len(sources))
	}
}

func TestSourcesForV6(t *testing.T) {
	s := newTestScanner(t)
	tgt := Target{Addr: addr("2a00:5::53"), ASN: 64500}
	sources := s.SourcesFor(tgt)
	counts := map[SourceCategory]int{}
	for _, src := range sources {
		if src.Is4() {
			t.Fatalf("v4 source %v for v6 target", src)
		}
		counts[Categorize(src, tgt.Addr, nil)]++
	}
	if counts[CatOtherPrefix] != 97 { // /48 has plenty of /64s
		t.Fatalf("v6 other-prefix = %d", counts[CatOtherPrefix])
	}
	if counts[CatDstAsSrc] != 1 || counts[CatLoopback] != 1 || counts[CatPrivate] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestAdmitExclusions(t *testing.T) {
	s := newTestScanner(t)
	s.OptOut(prefix("5.1.8.0/24"))
	for _, a := range []netip.Addr{
		addr("5.1.1.1"),      // ok
		addr("192.168.1.1"),  // special purpose
		addr("127.0.0.1"),    // special purpose
		addr("99.99.99.99"),  // unrouted
		addr("5.1.8.7"),      // opted out
		addr("2a00:5::1234"), // ok (v6)
	} {
		s.AdmitOne(a)
	}
	if s.Stats.TargetsAdmitted != 2 {
		t.Fatalf("admitted = %d (%+v)", s.Stats.TargetsAdmitted, s.Stats)
	}
	if s.Stats.ExcludedSpecial != 2 || s.Stats.ExcludedUnrouted != 1 || s.Stats.ExcludedOptOut != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	if s.Targets[0].ASN != 64500 {
		t.Fatalf("target ASN = %v", s.Targets[0].ASN)
	}
}

func TestSourcesForV6HitListPreference(t *testing.T) {
	s := newTestScanner(t)
	// Hit-list /64s deep in the /48 that blind enumeration (low /64s
	// first) would never reach before the 97 cap.
	hot1 := prefix("2a00:5:0:1234::/64")
	hot2 := prefix("2a00:5:0:beef::/64")
	s.Cfg.V6HitList = map[netip.Prefix]bool{hot1: true, hot2: true}
	tgt := Target{Addr: addr("2a00:5::53"), ASN: 64500}
	sources := s.SourcesFor(tgt)

	foundHot := 0
	for i, src := range sources {
		if hot1.Contains(src) || hot2.Contains(src) {
			foundHot++
			if i > 1 {
				t.Errorf("hit-listed source at position %d, want first", i)
			}
		}
	}
	if foundHot != 2 {
		t.Fatalf("hit-listed /64s contributed %d sources, want 2", foundHot)
	}
	// Still capped at 97 other-prefix + 4 fixed categories.
	if len(sources) != 97+4 {
		t.Fatalf("sources = %d", len(sources))
	}
}

// TestScheduleRateIsRespected runs §3.4's pacing on a network:
// TestAttachHooksNoServerOnFailure pre-hooks the second of two
// authoritative servers: Attach fails, the first stays unhooked, and
// the scanner stays a planner.
func TestAttachHooksNoServerOnFailure(t *testing.T) {
	reg := routing.NewRegistry()
	as := &routing.AS{ASN: 64502, Prefixes: []netip.Prefix{prefix("198.51.100.0/24")}}
	if err := reg.Add(as); err != nil {
		t.Fatal(err)
	}
	nw := netsim.New(reg, netsim.Config{Seed: 1})
	var auths []*authserver.Server
	for _, a := range []string{"198.51.100.53", "198.51.100.54"} {
		h, err := nw.Attach("ns-"+a, as, addr(a))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := authserver.New(h)
		if err != nil {
			t.Fatal(err)
		}
		auths = append(auths, srv)
	}
	auths[1].OnQuery = func(authserver.LogEntry) {}
	host, err := nw.Attach("scanner", as, addr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewPlanner(reg, Config{Seed: 7})
	if err := s.Attach(host, addr("198.51.100.1"), netip.Addr{}, auths); err == nil {
		t.Fatal("Attach accepted an authoritative server that is already monitored")
	}
	if auths[0].OnQuery != nil || s.Host != nil {
		t.Fatal("a failed Attach left the first authoritative server hooked or the scanner on its host")
	}
}

// CampaignDuration derives the window from the plan's probe count at
// the configured rate, every planned probe is sent inside it, and the
// sends realize the configured rate within 20%.
func TestScheduleRateIsRespected(t *testing.T) {
	reg := routing.NewRegistry()
	for _, as := range []*routing.AS{
		{ASN: 64501, Prefixes: []netip.Prefix{prefix("6.0.0.0/16")}},
		{ASN: 64502, Prefixes: []netip.Prefix{prefix("198.51.100.0/24")}},
	} {
		if err := reg.Add(as); err != nil {
			t.Fatal(err)
		}
	}
	nw := netsim.New(reg, netsim.Config{Seed: 1})
	host, err := nw.Attach("scanner", reg.AS(64502), addr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(host, addr("198.51.100.1"), netip.Addr{}, reg, nil, Config{Seed: 7, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.AdmitOne(netip.AddrFrom4([4]byte{6, 0, byte(i), 10}))
	}
	var sends []time.Duration
	nw.SetFaultHook(func(now time.Duration, _ uint64, _ *packet.Packet, _, _ *routing.AS) netsim.TransitFault {
		sends = append(sends, now)
		return netsim.TransitFault{}
	})
	total := s.Plan()
	duration := CampaignDuration(total, s.Cfg.Rate)
	s.Schedule(duration)
	nw.Run()

	if s.Stats.ProbesSent != uint64(total) || len(sends) != total {
		t.Fatalf("sent %d probes (%d on the wire), planned %d", s.Stats.ProbesSent, len(sends), total)
	}
	for i, at := range sends {
		if at < 0 || at >= duration {
			t.Fatalf("probe %d sent at %v, outside the window [0, %v)", i, at, duration)
		}
	}
	span := sends[len(sends)-1] - sends[0]
	if rate := float64(len(sends)-1) / span.Seconds(); rate < 80 || rate > 120 {
		t.Fatalf("%d probes over %v realize %.1f qps, want 100 ± 20%%", len(sends), span, rate)
	}
}

// TestScheduleKeepsEagerOrderUnderTies squeezes a campaign into one
// microsecond, so probe instants collide across targets hundreds of
// times, and requires the probe cursors to send in the order the
// eager schedule gives: every probe enqueued up front, plan by plan
// and source by source, ties broken by that order. Two phases plan,
// the second with one source per target under its own salt, and
// Schedule runs twice: the first call arms both phases' plans, the
// second arms nothing. The fault hook sees each probe as it is
// injected, in send order.
func TestScheduleKeepsEagerOrderUnderTies(t *testing.T) {
	const window = time.Microsecond
	reg := routing.NewRegistry()
	for _, as := range []*routing.AS{
		{ASN: 64500, Prefixes: []netip.Prefix{prefix("5.1.0.0/22"), prefix("2a00:5::/48")}},
		{ASN: 64501, Prefixes: []netip.Prefix{prefix("6.0.0.0/16")}},
		{ASN: 64502, Prefixes: []netip.Prefix{prefix("198.51.100.0/24")}},
	} {
		if err := reg.Add(as); err != nil {
			t.Fatal(err)
		}
	}
	nw := netsim.New(reg, netsim.Config{Seed: 1})
	host, err := nw.Attach("scanner", reg.AS(64502), addr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(host, addr("198.51.100.1"), netip.Addr{}, reg, nil, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var cands []netip.Addr
	for i := 0; i < 12; i++ {
		cands = append(cands, netip.AddrFrom4([4]byte{6, 0, byte(i), 10}))
	}
	cands = append(cands, addr("5.1.1.77"), addr("5.1.2.8"), addr("2a00:5::53"), addr("2a00:5:0:7::9"))
	for _, a := range cands {
		s.AdmitOne(a)
	}
	const otherSalt = 103
	s.Plan()
	reach := len(s.plans)
	s.PlanWith(otherSalt, func(t Target) []netip.Addr { return []netip.Addr{t.Addr} })

	type send struct {
		at       time.Duration
		src, dst netip.Addr
	}
	// The eager schedule, played on a queue of its own.
	ref := eventq.New()
	var want []send
	for pi := range s.plans {
		p := &s.plans[pi]
		k := len(p.sources)
		dst := s.Targets[p.target].Addr
		hi, lo := detrand.AddrWords(dst)
		salt := uint64(saltPhase)
		if pi >= reach {
			salt = otherSalt
		}
		phase := detrand.Float64(s.seed, hi, lo, salt)
		for j, src := range p.sources {
			at := time.Duration((float64(j) + phase) / float64(k) * float64(window))
			ref.At(at, func(now time.Duration) { want = append(want, send{now, src, dst}) })
		}
	}
	ref.Run()
	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].at == want[i-1].at && want[i].dst != want[i-1].dst {
			ties++
		}
	}
	if ties < 100 {
		t.Fatalf("only %d cross-target ties in %d probes; the window is not tight enough to test tie order", ties, len(want))
	}

	var got []send
	nw.SetFaultHook(func(now time.Duration, _ uint64, pkt *packet.Packet, _, _ *routing.AS) netsim.TransitFault {
		got = append(got, send{now, pkt.Src(), pkt.Dst()})
		return netsim.TransitFault{}
	})
	s.Schedule(window)
	s.Schedule(window)
	nw.Run()
	if len(got) != len(want) {
		t.Fatalf("sent %d probes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe %d of %d: sent %+v, eager schedule sends %+v", i, len(want), got[i], want[i])
		}
	}
}

// TestFollowUpsKeepEagerOrder runs follow-up sets on recycled records
// beside the main probes and requires every send in the order of the
// closure-per-send schedule, played on a queue of its own: each set's
// sends enqueued with After when the set is scheduled, and the main
// probes all enqueued up front. The campaign is squeezed into one
// microsecond and the sends are 7 ns apart, so sets overlap, a record
// serves a later set once its own is done, and follow-up sends tie with
// main probes and with each other. One target is IPv6 on a scanner with
// no IPv6 address: its set has no open-resolver probe and sends 21.
func TestFollowUpsKeepEagerOrder(t *testing.T) {
	const window, spacing = time.Microsecond, 7 * time.Nanosecond
	reg := routing.NewRegistry()
	for _, as := range []*routing.AS{
		{ASN: 64500, Prefixes: []netip.Prefix{prefix("5.1.0.0/22"), prefix("2a00:5::/48")}},
		{ASN: 64501, Prefixes: []netip.Prefix{prefix("6.0.0.0/16")}},
		{ASN: 64502, Prefixes: []netip.Prefix{prefix("198.51.100.0/24")}},
	} {
		if err := reg.Add(as); err != nil {
			t.Fatal(err)
		}
	}
	nw := netsim.New(reg, netsim.Config{Seed: 1})
	host, err := nw.Attach("scanner", reg.AS(64502), addr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(host, addr("198.51.100.1"), netip.Addr{}, reg, nil, Config{Seed: 7, FollowUpSpacing: spacing})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.AdmitOne(netip.AddrFrom4([4]byte{6, 0, byte(i), 10}))
	}
	s.AdmitOne(addr("5.1.1.77"))
	s.AdmitOne(addr("2a00:5::53"))
	s.Plan()

	// One set per target, on the first source of its plan, and a second
	// set for the first target tied with the third target's.
	type trigger struct {
		at time.Duration
		d  Decoded
	}
	var triggers []trigger
	for i := range s.plans {
		p := &s.plans[i]
		tgt := s.Targets[p.target]
		d := Decoded{Src: p.sources[0], Dst: tgt.Addr, ASN: tgt.ASN, Kind: ProbeMain}
		triggers = append(triggers, trigger{time.Duration(i*i*11) * time.Nanosecond, d})
		if i == 2 {
			triggers = append(triggers, trigger{triggers[i].at, triggers[0].d})
		}
	}

	type send struct {
		at       time.Duration
		src, dst netip.Addr
		kind     ProbeKind
	}
	ref := eventq.New()
	var want []send
	for _, tr := range triggers {
		d := tr.d
		ref.At(tr.at, func(time.Duration) {
			n := 0
			after := func(src netip.Addr, kind ProbeKind) {
				n++
				ref.After(time.Duration(n)*spacing, func(now time.Duration) { want = append(want, send{now, src, d.Dst, kind}) })
			}
			for i := 0; i < s.Cfg.FollowUpCount; i++ {
				after(d.Src, ProbeV4)
			}
			for i := 0; i < s.Cfg.FollowUpCount; i++ {
				after(d.Src, ProbeV6)
			}
			if d.Dst.Is4() {
				after(s.Addr4, ProbeMain)
			}
			after(d.Src, ProbeTC)
		})
	}
	for pi := range s.plans {
		p := &s.plans[pi]
		dst := s.Targets[p.target].Addr
		for j, src := range p.sources {
			at := time.Duration((float64(j) + p.phase) / float64(len(p.sources)) * float64(window))
			ref.At(at, func(now time.Duration) { want = append(want, send{now, src, dst, ProbeMain}) })
		}
	}
	ref.Run()
	followUp := func(w send) bool { return w.kind != ProbeMain || w.src == s.Addr4 }
	followUps, v6Sends, ties := 0, 0, 0
	for i, w := range want {
		if followUp(w) {
			followUps++
			if w.dst.Is6() {
				v6Sends++
			}
		}
		if i > 0 && w.at == want[i-1].at && followUp(w) != followUp(want[i-1]) {
			ties++
		}
	}
	if v6Sends != 21 {
		t.Fatalf("the IPv6 target's set sends %d probes in the reference, want 21", v6Sends)
	}
	if ties < 20 {
		t.Fatalf("only %d follow-up sends tie with a main probe; the schedule is not tight enough to test tie order", ties)
	}

	for _, tr := range triggers {
		d := tr.d
		nw.Q.At(tr.at, func(time.Duration) { s.ScheduleFollowUps(d) })
	}
	var got []send
	nw.SetFaultHook(func(now time.Duration, _ uint64, pkt *packet.Packet, _, _ *routing.AS) netsim.TransitFault {
		msg, err := dnswire.Unpack(pkt.Data)
		if err != nil {
			t.Fatalf("send %d does not decode: %v", len(got), err)
		}
		d, full, _ := DecodeQName(msg.Q().Name, s.Cfg.Keyword)
		if !full {
			t.Fatalf("send %d carries %q, not a full probe name", len(got), msg.Q().Name)
		}
		got = append(got, send{now, pkt.Src(), pkt.Dst(), d.Kind})
		return netsim.TransitFault{Drop: true}
	})
	s.Schedule(window)
	nw.Run()
	if len(got) != len(want) {
		t.Fatalf("sent %d probes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("send %d of %d: sent %+v, closure-per-send schedule sends %+v", i, len(want), got[i], want[i])
		}
	}
	if st := s.Stats; st.FollowUpSetsSent != uint64(len(triggers)) || st.FollowUpQueries != uint64(followUps) {
		t.Fatalf("stats %+v: want %d sets of %d follow-up queries", st, len(triggers), followUps)
	}
	if n := len(s.sets); n == 0 || n >= len(triggers) {
		t.Fatalf("%d set records back on the free list for %d sets; want fewer, all returned", n, len(triggers))
	}
}

// TestProbesAreEncodeQNamePacked pins the wire-form probe writers:
// every probe, scheduled or sent through SendProbe, of every kind and
// family, carries exactly the query EncodeQName's name packs to, under
// the probe's own transaction ID and source port, with TTL 64. A
// keyword that makes no valid name sends nothing and counts nothing.
func TestProbesAreEncodeQNamePacked(t *testing.T) {
	reg := routing.NewRegistry()
	for _, as := range []*routing.AS{
		{ASN: 64500, Prefixes: []netip.Prefix{prefix("5.1.0.0/22"), prefix("2a00:5::/48")}},
		{ASN: 64502, Prefixes: []netip.Prefix{prefix("198.51.100.0/24")}},
	} {
		if err := reg.Add(as); err != nil {
			t.Fatal(err)
		}
	}
	nw := netsim.New(reg, netsim.Config{Seed: 1})
	host, err := nw.Attach("scanner", reg.AS(64502), addr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(host, addr("198.51.100.1"), netip.Addr{}, reg, nil, Config{Seed: 7, Keyword: "Kw.x1"})
	if err != nil {
		t.Fatal(err)
	}
	type sent struct {
		now time.Duration
		pkt *packet.Packet
	}
	var got []sent
	nw.SetFaultHook(func(now time.Duration, _ uint64, pkt *packet.Packet, _, _ *routing.AS) netsim.TransitFault {
		// The hook's Packet and bytes last only as long as the call.
		kept, err := packet.Decode(append([]byte(nil), pkt.Raw...))
		if err != nil {
			t.Fatalf("probe %d does not decode: %v", len(got), err)
		}
		got = append(got, sent{now, kept})
		return netsim.TransitFault{Drop: true}
	})
	s.AdmitOne(addr("5.1.1.77"))
	s.AdmitOne(addr("2a00:5:0:7::9"))
	s.Plan()
	s.Schedule(time.Second)
	nw.Run()
	planned := len(got)
	kinds := []ProbeKind{ProbeMain, ProbeV4, ProbeV6, ProbeTC, ProbeKind(9)}
	// A plan lets go of its sources after its last probe; PlanWith
	// copied exactly what SourcesFor returns into its chunk.
	for _, tgt := range s.Targets {
		src := s.SourcesFor(tgt)[0]
		for _, k := range kinds {
			s.SendProbe(nw.Now(), src, tgt, k)
		}
	}
	if len(got) != planned+len(s.Targets)*len(kinds) || s.Stats.ProbesSent != uint64(len(got)) {
		t.Fatalf("%d datagrams (%d planned), ProbesSent %d", len(got), planned, s.Stats.ProbesSent)
	}
	for i, g := range got {
		kind := ProbeMain
		if i >= planned {
			kind = kinds[(i-planned)%len(kinds)]
		}
		p := g.pkt
		asn := reg.OriginOf(p.Dst()).ASN
		txn, sport := s.probeIDs(g.now, p.Src(), p.Dst(), kind)
		want, err := dnswire.NewQuery(txn, EncodeQName(g.now, p.Src(), p.Dst(), asn, s.Cfg.Keyword, kind), dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, want) || p.UDP.SrcPort != sport || p.UDP.DstPort != 53 || p.TTL() != 64 {
			t.Fatalf("probe %d (kind %v) sent %x from port %d, TTL %d; want %x from port %d, TTL 64",
				i, kind, p.Data, p.UDP.SrcPort, p.TTL(), want, sport)
		}
	}

	long, err := New(host, addr("198.51.100.1"), netip.Addr{}, reg, nil, Config{Seed: 7, Keyword: strings.Repeat("k", 64)})
	if err != nil {
		t.Fatal(err)
	}
	before := len(got)
	src := s.SourcesFor(s.Targets[0])[0]
	long.SendProbe(time.Second, src, s.Targets[0], ProbeV4)
	if _, err := dnswire.NewQuery(1, EncodeQName(time.Second, src, s.Targets[0].Addr, 64500, long.Cfg.Keyword, ProbeV4), dnswire.TypeA).Pack(); err == nil {
		t.Fatal("a 64-octet keyword label packed")
	}
	if long.Stats.ProbesSent != 0 || len(got) != before {
		t.Fatalf("an unpackable probe was sent: %d datagrams (want %d), ProbesSent %d", len(got), before, long.Stats.ProbesSent)
	}
}
