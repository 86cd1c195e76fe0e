package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dnswire"
)

var (
	clientAddrBench   = netip.MustParseAddr("192.0.2.10")
	resolverAddrBench = netip.MustParseAddr("198.51.100.53")
)

// buildHierarchyBench adapts the test fixture for benchmarks.
func buildHierarchyBench(b *testing.B) *hierarchy {
	b.Helper()
	return buildHierarchy(b, Config{ACL: ACL{Open: true}, Seed: 77})
}

func TestCacheExpiresOnVirtualClock(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 51})
	h.authZone.AddAddr("short.dns-lab.org", addr("192.0.9.200"), 5) // 5s TTL
	r1 := h.query(t, "short.dns-lab.org", dnswire.TypeA)
	if r1 == nil || len(r1.Answer) != 1 {
		t.Fatalf("first answer = %+v", r1)
	}
	before := h.res.Stats.UpstreamQueries

	// Within TTL: served from cache.
	h.net.RunFor(2 * time.Second)
	h.query(t, "short.dns-lab.org", dnswire.TypeA)
	if h.res.Stats.UpstreamQueries != before {
		t.Fatal("cache miss before TTL expiry")
	}

	// Past TTL: must refetch.
	h.net.RunFor(10 * time.Second)
	h.query(t, "short.dns-lab.org", dnswire.TypeA)
	if h.res.Stats.UpstreamQueries == before {
		t.Fatal("cache still serving expired record")
	}
}

func TestNegativeCacheExpires(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 52})
	h.authZone.TTL = 1
	h.query(t, "neg.dns-lab.org", dnswire.TypeA)
	before := h.res.Stats.UpstreamQueries
	h.net.RunFor(90 * time.Second) // past the SOA minimum (60s)
	resp := h.query(t, "neg.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("resp = %+v", resp)
	}
	if h.res.Stats.UpstreamQueries == before {
		t.Fatal("negative cache never expired")
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	// Under 30% transit loss, retransmission (2 retries) should let the
	// vast majority of queries resolve.
	h := buildHierarchyWithLoss(t, Config{ACL: ACL{Open: true}, Seed: 53}, 0.3)
	ok, servfail := 0, 0
	for i := 0; i < 120; i++ {
		resp := h.query(t, dnswire.Name(string(rune('a'+i%26))+string(rune('a'+i/26))+".loss.dns-lab.org"), dnswire.TypeA)
		switch {
		case resp == nil:
			// Response itself lost in transit: acceptable.
		case resp.RCode == dnswire.RCodeNXDomain:
			ok++
		case resp.RCode == dnswire.RCodeServFail:
			servfail++
		}
	}
	// The stub client sends once, so ~50% of queries die on the
	// client<->resolver legs; among those the resolver answered, its
	// retransmission must make successful resolution dominate SERVFAIL.
	if ok+servfail < 36 {
		t.Fatalf("only %d/120 queries answered under loss", ok+servfail)
	}
	if ok < 3*servfail {
		t.Fatalf("resolution %d vs servfail %d: retransmission not recovering (timeouts=%d)",
			ok, servfail, h.res.Stats.Timeouts)
	}
	if h.res.Stats.Timeouts == 0 {
		t.Fatal("no timeouts under 30% loss — loss not exercised")
	}
}

func TestStaleResponseIgnored(t *testing.T) {
	// A response whose transaction ID matches nothing pending must be
	// dropped silently (the attack surface the txid guards).
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 54})
	forged := dnswire.NewQuery(0x4242, "forged.dns-lab.org", dnswire.TypeA).Reply()
	forged.Answer = []dnswire.RR{{
		Name: "forged.dns-lab.org", Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 300, Addr: addr("192.0.9.66"),
	}}
	payload, _ := forged.Pack()
	// Spoof it from the auth server toward the resolver's service port.
	raw, err := buildSpoofedUDP(addr("192.0.9.3"), addr("198.51.100.53"), 53, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	h.client.SendRaw(raw)
	h.net.Run()
	if _, cached := h.res.CachedAnswer("forged.dns-lab.org", dnswire.TypeA); cached {
		t.Fatal("unsolicited response entered the cache")
	}
}

func TestMaxStepsGuardsAgainstLoops(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 55, MaxSteps: 2})
	resp := h.query(t, "deep.a.b.c.d.e.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("resp = %+v, want SERVFAIL after step budget", resp)
	}
}

func Test0x20ResolutionStillWorks(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Use0x20: true, Seed: 56})
	h.authZone.AddAddr("mixedcase.dns-lab.org", addr("192.0.9.123"), 300)
	resp := h.query(t, "MixedCase.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
		t.Fatalf("0x20 resolver failed normal resolution: %+v", resp)
	}
	// Upstream queries must actually vary case across the chain.
	varied := false
	for _, e := range h.authLog {
		if e.Name.Equal("mixedcase.dns-lab.org") && string(e.Name) != "MixedCase.dns-lab.org" &&
			string(e.Name) != "mixedcase.dns-lab.org" {
			varied = true
		}
	}
	if !varied {
		t.Log("note: randomized case happened to match a canonical form; acceptable but unlikely")
	}
}

func Test0x20RejectsCaseMismatchedResponse(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Use0x20: true, Seed: 57})
	// Normal resolution primes delegations; then verify a NXDOMAIN name
	// still resolves correctly (responses from our honest auth echo the
	// exact case and pass the check).
	resp := h.query(t, "abcdefgh.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("resp = %+v", resp)
	}
	if h.res.Stats.ServFail != 0 {
		t.Fatalf("honest responses rejected under 0x20: %+v", h.res.Stats)
	}
}

func TestQuickRandomizeCasePreservesName(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(a, b uint8) bool {
		name := dnswire.Name(string(rune('a'+a%26)) + "bc" + string(rune('A'+b%26)) + "9-x.example.org")
		got := randomizeCase(name, rng)
		// Case-insensitively identical, same length, non-letters intact.
		if !got.Equal(name) || len(got) != len(name) {
			return false
		}
		for i := 0; i < len(name); i++ {
			c, g := name[i], got[i]
			isLetter := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
			if !isLetter && c != g {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSuffixLabels(t *testing.T) {
	n := dnswire.Name("a.b.c.example.org")
	cases := []struct {
		k    int
		want dnswire.Name
	}{
		{1, "org"}, {2, "example.org"}, {4, "b.c.example.org"},
		{5, "a.b.c.example.org"}, {9, "a.b.c.example.org"},
	}
	for _, c := range cases {
		if got := suffixLabels(n, c.k); got != c.want {
			t.Errorf("suffixLabels(%d) = %q, want %q", c.k, got, c.want)
		}
	}
}

func BenchmarkResolveThroughHierarchy(b *testing.B) {
	// Cost of one client query resolved end to end (delegations cached
	// after the first iteration).
	h := buildHierarchyBench(b)
	payloads := make([][]byte, b.N)
	for i := range payloads {
		q := dnswire.NewQuery(uint16(i), dnswire.Name(fmt.Sprintf("q%d.bench.dns-lab.org", i)), dnswire.TypeA)
		p, err := q.Pack()
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.client.SendUDP(clientAddrBench, 6000, resolverAddrBench, 53, payloads[i])
		h.net.Run()
	}
}

func TestManySimultaneousClientQueries(t *testing.T) {
	// 200 client queries landing at the same virtual instant: the
	// pending-query demux (port, txid) must keep every job separate.
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 58})
	h.authZone.Wildcard = true
	answers := make(map[uint16]netip.Addr)
	h.client.BindUDP(7500, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		m, err := dnswire.Unpack(payload)
		if err != nil || !m.QR {
			return
		}
		for _, rr := range m.Answer {
			if rr.Type == dnswire.TypeA {
				answers[m.ID] = rr.Addr
			}
		}
	})
	const n = 200
	for i := 0; i < n; i++ {
		q := dnswire.NewQuery(uint16(i), dnswire.Name(fmt.Sprintf("q%03d.many.dns-lab.org", i)), dnswire.TypeA)
		payload, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.client.SendUDP(addr("192.0.2.10"), 7500, addr("198.51.100.53"), 53, payload); err != nil {
			t.Fatal(err)
		}
	}
	h.net.Run()
	if len(answers) != n {
		t.Fatalf("answered %d of %d simultaneous queries (servfail=%d, timeouts=%d)",
			len(answers), n, h.res.Stats.ServFail, h.res.Stats.Timeouts)
	}
	for id, a := range answers {
		if a != addr("192.0.2.200") { // the wildcard's synthesized A
			t.Fatalf("query %d answered %v", id, a)
		}
	}
	// No lingering pending state or leaked port bindings beyond 53.
	if got := len(h.res.pending); got != 0 {
		t.Fatalf("%d pending queries after completion", got)
	}
	if got := len(h.res.portRef); got != 1 {
		t.Fatalf("%d bound ports after completion, want just 53", got)
	}
}

// checkRecords fails t unless the resolver has no attempt pending and
// its free lists hold jobs job records and attempts attempt records,
// each once and emptied: a record on a list twice would serve two
// exchanges at once, and one missing was dropped while its exchange
// could still reach it.
func checkRecords(t *testing.T, r *Resolver, jobs, attempts int) {
	t.Helper()
	if n := len(r.pending); n != 0 {
		t.Fatalf("%d attempts still pending", n)
	}
	seenJobs := make(map[*job]bool)
	for _, j := range r.jobs {
		if seenJobs[j] || j.qname != "" {
			t.Fatalf("job record %p is on the free list twice or still holds %q", j, j.qname)
		}
		seenJobs[j] = true
	}
	seenAttempts := make(map[*outstanding]bool)
	for _, out := range r.attempts {
		if seenAttempts[out] || out.job != nil || out.qname != "" || out.seq != 0 {
			t.Fatalf("attempt record %p is on the free list twice or not emptied: %+v", out, *out)
		}
		seenAttempts[out] = true
	}
	if len(r.jobs) != jobs || len(r.attempts) != attempts {
		t.Fatalf("free lists hold %d job and %d attempt records, want %d and %d", len(r.jobs), len(r.attempts), jobs, attempts)
	}
}

// TestAnsweredAttemptRecordIsReused spaces client queries closer than
// the upstream timeout, though far enough apart that each is answered
// before the next arrives. An answered attempt's record goes back at
// once, so the first query's three hops and every later query run on
// one record, while the earlier attempts' timeout events are still
// queued. Each of those stale events runs, counts no timeout, fails no
// job and puts no record on a free list twice.
func TestAnsweredAttemptRecordIsReused(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 58, Timeout: 10 * time.Second})
	h.authZone.Wildcard = true
	r := h.res
	answered := 0
	h.client.BindUDP(7600, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.QR && m.RCode == dnswire.RCodeNoError && len(m.Answer) == 1 {
			answered++
		}
	})
	const n, gap = 10, 500 * time.Millisecond
	for i := 0; i < n; i++ {
		payload, err := dnswire.NewQuery(uint16(i), dnswire.Name(fmt.Sprintf("q%d.reuse.dns-lab.org", i)), dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		h.net.Q.At(time.Duration(i)*gap, func(time.Duration) {
			h.client.SendUDP(addr("192.0.2.10"), 7600, addr("198.51.100.53"), 53, payload)
		})
	}
	h.net.Q.RunUntil(n * gap)
	stale := int(r.Stats.UpstreamQueries)
	if answered != n || stale <= n {
		t.Fatalf("%d of %d queries answered through %d upstream queries by %v", answered, n, stale, h.net.Now())
	}
	if got := h.net.Q.Len(); got != stale {
		t.Fatalf("%d events queued once every query is answered, want the %d upstream attempts' timeouts", got, stale)
	}
	if len(r.attempts) != 1 {
		t.Fatalf("%d attempt records back before any timeout ran, want the one every query used", len(r.attempts))
	}
	h.net.Run()
	if st := r.Stats; st.Timeouts != 0 || st.ServFail != 0 || st.Responded != n {
		t.Fatalf("stats after the stale timeouts ran: %+v", st)
	}
	checkRecords(t, r, 1, 1)
}

// TestWarmIterativeResolutionMakesNoAttemptRecord pins a warm
// three-hop iterative resolution (root, org, dns-lab.org) at 0 new
// attempt records: each hop's record goes back when its answer
// arrives and the next hop takes it, though the previous resolution's
// timeouts are still queued.
func TestWarmIterativeResolutionMakesNoAttemptRecord(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 58})
	h.authZone.Wildcard = true
	r := h.res
	resolve := func(name dnswire.Name) {
		t.Helper()
		payload, err := dnswire.NewQuery(1, name, dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		before := r.Stats
		h.client.SendUDP(addr("192.0.2.10"), 7700, addr("198.51.100.53"), 53, payload)
		h.net.RunFor(time.Second)
		if st := r.Stats; st.UpstreamQueries-before.UpstreamQueries != 3 || st.Responded-before.Responded != 1 || st.ServFail != 0 {
			t.Fatalf("resolving %s: stats went from %+v to %+v, want three upstream queries and an answer", name, before, st)
		}
	}
	resolve("a.warm.dns-lab.org")
	r.Crash(h.net.Now()) // flush the delegations: the next resolution starts at the root
	warm := slices.Clone(r.attempts)
	resolve("b.warm.dns-lab.org")
	h.net.Run()
	if !slices.Equal(r.attempts, warm) || r.Stats.Timeouts != 0 {
		t.Fatalf("a warm three-hop resolution left %d attempt records on the free list, want its warm %d; %d timeouts",
			len(r.attempts), len(warm), r.Stats.Timeouts)
	}
	checkRecords(t, r, 1, 1)
}

// TestRetransmitNeverOverwritesPending fills every transaction ID of a
// fixed port with a pending query, then retransmits on that port. No
// free key exists, so the retransmission must give up with SERVFAIL,
// putting its record back on the free list, rather than take over
// another query's entry: a replaced entry would drop that query's
// response and its timeout would delete the retransmission's key.
func TestRetransmitNeverOverwritesPending(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Ports: &FixedPort{Port: 5300}, Seed: 58})
	r := h.res
	held := make([]*outstanding, 65536)
	for id := range held {
		key := pendKey{port: 5300, id: uint16(id)}
		held[id] = &outstanding{key: key}
		r.pending[key] = held[id]
	}

	var got *dnswire.Message
	h.client.BindUDP(5353, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.QR {
			got = m
		}
	})
	j := &job{
		client: addr("192.0.2.10"), clientPort: 5353, local: addr("198.51.100.53"),
		id: 7, qname: "retx.dns-lab.org", qtype: dnswire.TypeA, depth: r.cfg.MaxSteps,
	}
	out := r.newAttempt()
	out.job, out.server, out.qname, out.qtype, out.attempt = j, addr("192.0.9.1"), j.qname, j.qtype, 1
	r.retransmit(out)
	h.net.Run()

	for id, out := range held {
		key := pendKey{port: 5300, id: uint16(id)}
		if r.pending[key] != out {
			t.Fatalf("retransmit replaced the pending entry for %+v", key)
		}
	}
	if got == nil || got.RCode != dnswire.RCodeServFail {
		t.Fatalf("resp = %+v, want SERVFAIL when no transaction ID is free", got)
	}
	if n := len(r.attempts); n != 1 || r.attempts[0] != out || out.job != nil {
		t.Fatalf("the failed retransmission left %d records on the free list, want its own, emptied", n)
	}
}

// TestCrashWithCacheLayerFlushes pins crash semantics: Crash empties
// the cache and reports exactly one flush to the cache observer.
func TestCrashWithCacheLayerFlushes(t *testing.T) {
	obs := &traceObs{}
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 35, CacheObserver: obs})
	h.authZone.AddAddr("warm.dns-lab.org", addr("192.0.9.104"), 300)
	h.query(t, "warm.dns-lab.org", dnswire.TypeA)
	if _, ok := h.res.CachedAnswer("warm.dns-lab.org", dnswire.TypeA); !ok {
		t.Fatal("cache not warm before crash")
	}
	h.res.Crash(h.net.Now())
	if _, ok := h.res.CachedAnswer("warm.dns-lab.org", dnswire.TypeA); ok {
		t.Fatal("cache survived a crash")
	}
	flushes := 0
	for _, e := range obs.events {
		if strings.HasPrefix(e, "flush") {
			flushes++
		}
	}
	if flushes != 1 {
		t.Fatalf("crash emitted %d flush events, want 1 (trace: %v)", flushes, obs.events)
	}
}
