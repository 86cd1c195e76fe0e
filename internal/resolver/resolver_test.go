package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/oskernel"
	"repro/internal/routing"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// hierarchy is a miniature DNS world: root, org TLD, and the dns-lab.org
// experiment servers, plus a resolver and a stub client.
type hierarchy struct {
	net      *netsim.Network
	authLog  []authserver.LogEntry // queries ns1.dns-lab.org received
	authZone *authserver.Zone
	res      *Resolver
	resHost  *netsim.Host
	client   *netsim.Host
	clientAS *routing.AS
	resAS    *routing.AS
}

func soa() dnswire.SOAData {
	return dnswire.SOAData{
		MName: "ns1.dns-lab.org", RName: "research.dns-lab.org",
		Serial: 2019110601, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 60,
	}
}

func buildHierarchy(t testing.TB, cfg Config) *hierarchy {
	t.Helper()
	return buildHierarchyWithLoss(t, cfg, 0)
}

func buildHierarchyWithLoss(t testing.TB, cfg Config, loss float64) *hierarchy {
	t.Helper()
	reg := routing.NewRegistry()
	infraAS := &routing.AS{ASN: 10, Prefixes: []netip.Prefix{prefix("192.0.9.0/24"), prefix("2001:db8:9::/48")}}
	resAS := &routing.AS{ASN: 20, Prefixes: []netip.Prefix{prefix("198.51.100.0/24"), prefix("2001:db8:20::/48")}}
	clientAS := &routing.AS{ASN: 30, Prefixes: []netip.Prefix{prefix("192.0.2.0/24"), prefix("2001:db8:30::/48")}}
	for _, as := range []*routing.AS{infraAS, resAS, clientAS} {
		if err := reg.Add(as); err != nil {
			t.Fatal(err)
		}
	}
	n := netsim.New(reg, netsim.Config{Seed: 7, LossRate: loss})

	rootAddr4, rootAddr6 := addr("192.0.9.1"), addr("2001:db8:9::1")
	orgAddr4, orgAddr6 := addr("192.0.9.2"), addr("2001:db8:9::2")
	authAddr4, authAddr6 := addr("192.0.9.3"), addr("2001:db8:9::3")

	rootHost, err := n.Attach("root", infraAS, rootAddr4, rootAddr6)
	if err != nil {
		t.Fatal(err)
	}
	orgHost, err := n.Attach("org", infraAS, orgAddr4, orgAddr6)
	if err != nil {
		t.Fatal(err)
	}
	authHost, err := n.Attach("auth", infraAS, authAddr4, authAddr6)
	if err != nil {
		t.Fatal(err)
	}

	rootZone := authserver.NewZone(dnswire.Root, soa())
	rootZone.TTL = 86400
	rootZone.Delegate(&authserver.Delegation{
		Apex: "org", NS: []dnswire.Name{"a0.org.afilias-nst.info"},
		Glue: map[dnswire.Name][]netip.Addr{"a0.org.afilias-nst.info": {orgAddr4, orgAddr6}},
	})
	if _, err := authserver.New(rootHost, rootZone); err != nil {
		t.Fatal(err)
	}

	orgZone := authserver.NewZone("org", soa())
	orgZone.TTL = 86400
	orgZone.Delegate(&authserver.Delegation{
		Apex: "dns-lab.org", NS: []dnswire.Name{"ns1.dns-lab.org"},
		Glue: map[dnswire.Name][]netip.Addr{"ns1.dns-lab.org": {authAddr4, authAddr6}},
	})
	if _, err := authserver.New(orgHost, orgZone); err != nil {
		t.Fatal(err)
	}

	authZone := authserver.NewZone("dns-lab.org", soa())
	tcZone := authserver.NewZone("tc.dns-lab.org", soa())
	tcZone.AlwaysTruncate = true
	auth, err := authserver.New(authHost, authZone, tcZone)
	if err != nil {
		t.Fatal(err)
	}

	resHost, err := n.Attach("resolver", resAS, addr("198.51.100.53"), addr("2001:db8:20::53"))
	if err != nil {
		t.Fatal(err)
	}
	resHost.OS = oskernel.UbuntuModern
	if cfg.Ports == nil {
		cfg.Ports = NewUniform(oskernel.PoolLinux, rand.New(rand.NewSource(1)))
	}
	res, err := New(resHost, []netip.Addr{rootAddr4, rootAddr6}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	client, err := n.Attach("client", clientAS, addr("192.0.2.10"), addr("2001:db8:30::10"))
	if err != nil {
		t.Fatal(err)
	}
	h := &hierarchy{
		net: n, authZone: authZone, res: res, resHost: resHost,
		client: client, clientAS: clientAS, resAS: resAS,
	}
	auth.OnQuery = func(e authserver.LogEntry) { h.authLog = append(h.authLog, e) }
	return h
}

// query sends a client query to the resolver and returns the response
// received (nil if none) after the network settles.
func (h *hierarchy) query(t testing.TB, name dnswire.Name, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	var got *dnswire.Message
	h.client.UnbindUDP(5353)
	h.client.BindUDP(5353, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.QR {
			got = m
		}
	})
	q := dnswire.NewQuery(uint16(len(name)+int(typ)), name, typ)
	payload, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.SendUDP(addr("192.0.2.10"), 5353, addr("198.51.100.53"), 53, payload); err != nil {
		t.Fatal(err)
	}
	h.net.Run()
	return got
}

func TestOpenResolverResolvesNXDomain(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 1})
	resp := h.query(t, "1000.src.dst.asn.kw.dns-lab.org", dnswire.TypeA)
	if resp == nil {
		t.Fatal("no response from resolver")
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v, want NXDOMAIN", resp.RCode)
	}
	// The full chain root -> org -> dns-lab must appear in the auth log.
	found := false
	for _, e := range h.authLog {
		if e.Name.Equal("1000.src.dst.asn.kw.dns-lab.org") {
			found = true
			if e.Client != addr("198.51.100.53") && e.Client != addr("2001:db8:20::53") {
				t.Fatalf("auth saw client %v", e.Client)
			}
		}
	}
	if !found {
		t.Fatalf("experiment query never reached the authoritative server; log=%v", h.authLog)
	}
}

func TestClosedResolverRefusesOutsideACL(t *testing.T) {
	h := buildHierarchy(t, Config{
		ACL:  ACL{Allowed: []netip.Prefix{prefix("198.51.100.0/24")}},
		Seed: 2,
	})
	resp := h.query(t, "1001.x.dns-lab.org", dnswire.TypeA)
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %v, want REFUSED (client outside ACL)", resp.RCode)
	}
	if len(h.authLog) != 0 {
		t.Fatalf("refused query still reached auth: %v", h.authLog)
	}
	if h.res.Stats.Refused != 1 {
		t.Fatalf("stats = %+v", h.res.Stats)
	}
}

func TestClosedResolverAcceptsSpoofedInternal(t *testing.T) {
	// The paper's core scenario: a closed resolver's ACL trusts its own
	// prefix; a spoofed-internal source passes the ACL.
	h := buildHierarchy(t, Config{
		ACL:  ACL{Allowed: []netip.Prefix{prefix("198.51.100.0/24"), prefix("2001:db8:20::/48")}},
		Seed: 3,
	})
	q := dnswire.NewQuery(42, "1002.spoof.dns-lab.org", dnswire.TypeA)
	payload, _ := q.Pack()
	// Spoof a same-prefix source via the client's raw socket.
	raw, err := buildSpoofedUDP(addr("198.51.100.77"), addr("198.51.100.53"), 40000, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	h.client.SendRaw(raw)
	h.net.Run()
	found := false
	for _, e := range h.authLog {
		if e.Name.Equal("1002.spoof.dns-lab.org") {
			found = true
		}
	}
	if !found {
		t.Fatal("spoofed-internal query did not induce a recursive-to-authoritative query")
	}
}

func TestCacheSuppressesRepeatUpstreamQueries(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 4})
	h.authZone.AddAddr("www.dns-lab.org", addr("192.0.9.100"), 300)
	r1 := h.query(t, "www.dns-lab.org", dnswire.TypeA)
	if r1 == nil || r1.RCode != dnswire.RCodeNoError || len(r1.Answer) != 1 {
		t.Fatalf("first answer = %+v", r1)
	}
	upstreamAfterFirst := h.res.Stats.UpstreamQueries
	r2 := h.query(t, "www.dns-lab.org", dnswire.TypeA)
	if r2 == nil || len(r2.Answer) != 1 {
		t.Fatalf("second answer = %+v", r2)
	}
	if h.res.Stats.UpstreamQueries != upstreamAfterFirst {
		t.Fatalf("cache miss: upstream queries grew from %d to %d",
			upstreamAfterFirst, h.res.Stats.UpstreamQueries)
	}
}

// TestCachedRRsetSurvivesReuse: the resolver decodes every datagram
// into one reused message and builds every reply and query in another,
// so a cache entry that kept the decode's records, or a reply that
// aliased a cached RRset, would be overwritten by the next message. A
// cached RRset reads the same after the resolver has answered from it
// and then resolved, answered and queried other names.
func TestCachedRRsetSurvivesReuse(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 19})
	h.authZone.AddAddr("www.dns-lab.org", addr("192.0.9.100"), 300)
	h.authZone.AddAddr("www.dns-lab.org", addr("192.0.9.101"), 300)
	h.authZone.AddAddr("mail.dns-lab.org", addr("192.0.9.102"), 300)
	h.authZone.AddAddr("mail.dns-lab.org", addr("192.0.9.103"), 300)
	if r := h.query(t, "www.dns-lab.org", dnswire.TypeA); r == nil || len(r.Answer) != 2 {
		t.Fatalf("first answer = %+v", r)
	}
	cached, ok := h.res.CachedAnswer("www.dns-lab.org", dnswire.TypeA)
	if !ok {
		t.Fatal("answer not cached")
	}
	want := append([]dnswire.RR(nil), cached...)
	upstream := h.res.Stats.UpstreamQueries
	if r := h.query(t, "www.dns-lab.org", dnswire.TypeA); r == nil || len(r.Answer) != 2 || h.res.Stats.UpstreamQueries != upstream {
		t.Fatalf("cached answer = %+v after %d upstream queries, want 2 records and no query", r, h.res.Stats.UpstreamQueries-upstream)
	}
	for _, name := range []dnswire.Name{"mail.dns-lab.org", "8000.gone.dns-lab.org"} {
		h.query(t, name, dnswire.TypeA)
	}
	if h.res.Stats.UpstreamQueries == upstream {
		t.Fatal("no upstream query after the cache hit")
	}
	got, ok := h.res.CachedAnswer("www.dns-lab.org", dnswire.TypeA)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("cached RRset changed: %+v, was %+v", got, want)
	}
}

// TestCachedAnswerAllocations pins a warmed resolver answering a client
// query from its cache. The query's name is the only object, and a
// name the resolver decoded just before is none: its decode returns the
// string it made then. The job comes off the resolver's free list, the
// reply is built and packed in its reused storage, and sent to a
// spoofed client no host owns, it is counted without a datagram.
func TestCachedAnswerAllocations(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 20})
	var payloads [][]byte
	for i := 0; i < 102; i++ {
		name := dnswire.Name(fmt.Sprintf("w%d.dns-lab.org", i))
		h.authZone.AddAddr(name, addr("192.0.9.100"), 300)
		h.query(t, name, dnswire.TypeA)
		p, err := dnswire.NewQuery(7, name, dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	spoofed, local := addr("198.51.100.77"), addr("198.51.100.53")
	h.res.HandleQuery(h.net.Now(), spoofed, 40000, local, payloads[0]) // warm the reply storage
	responded := h.res.Stats.Responded
	fresh := payloads[1:]
	if a := testing.AllocsPerRun(100, func() {
		h.res.HandleQuery(h.net.Now(), spoofed, 40000, local, fresh[0])
		fresh = fresh[1:]
	}); a != 1 {
		t.Fatalf("answering from the cache allocates %v times, want 1 (the name)", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		h.res.HandleQuery(h.net.Now(), spoofed, 40000, local, payloads[0])
	}); a != 0 {
		t.Fatalf("answering a name just decoded from the cache allocates %v times, want 0", a)
	}
	if h.res.Stats.Responded-responded != 202 || h.net.Q.Len() != 0 || h.net.Drops()[netsim.DropNoHost] < 202 {
		t.Fatalf("%d responses, %d events pending, drops %v", h.res.Stats.Responded-responded, h.net.Q.Len(), h.net.Drops())
	}
}

// TestUpstreamNXDomainAllocations pins a warmed resolver answering a
// client query through one upstream exchange: the dns-lab.org
// delegation is cached, so it asks ns1.dns-lab.org, which says
// NXDOMAIN. The only objects are the client's question, the server's
// copy of it and the response's SOAData. The response's names are
// ones the resolver decoded before (the question it just decoded from
// its client; the SOA owner, MName and RName of the last NXDOMAIN), so
// its decode makes none. The job, the attempt and its timeout event
// come off the resolver's free lists, the server pick walks the server
// list in place, and the datagrams and arrival events are the
// network's recycled ones.
func TestUpstreamNXDomainAllocations(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 22})
	h.query(t, "0.gone.dns-lab.org", dnswire.TypeA) // cache the delegations
	var payloads [][]byte
	for i := 1; i <= 102; i++ {
		p, err := dnswire.NewQuery(7, dnswire.Name(fmt.Sprintf("%d.gone.dns-lab.org", i)), dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	spoofed, local := addr("198.51.100.77"), addr("198.51.100.53")
	h.res.HandleQuery(h.net.Now(), spoofed, 40000, local, payloads[0]) // warm the records and buffers
	h.net.Run()
	payloads = payloads[1:]
	upstream, nx := h.res.Stats.UpstreamQueries, h.res.Stats.ServFail
	if a := testing.AllocsPerRun(100, func() {
		h.res.HandleQuery(h.net.Now(), spoofed, 40000, local, payloads[0])
		payloads = payloads[1:]
		h.net.Run()
	}); a != 3 {
		t.Fatalf("an upstream NXDOMAIN allocates %v times, want 3 (two names and the SOAData)", a)
	}
	if h.res.Stats.UpstreamQueries-upstream != 101 || h.res.Stats.ServFail != nx || len(h.res.pending) != 0 {
		t.Fatalf("%d upstream queries, %d SERVFAILs, %d pending", h.res.Stats.UpstreamQueries-upstream, h.res.Stats.ServFail-nx, len(h.res.pending))
	}
}

// TestPickServerAllocations pins the server pick, which //doors:hotpath
// marks, at no allocation, and holds it to the draw it replaced: k =
// rng.Intn(usable count), then the k-th usable server in list order.
func TestPickServerAllocations(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 23})
	servers := []netip.Addr{addr("192.0.9.1"), addr("2001:db8:9::1"), addr("192.0.9.2"), addr("2001:db8:9::2"), addr("192.0.9.3")}
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := h.res.pickServer(servers); !ok {
			t.Fatal("no usable server")
		}
	}); a != 0 {
		t.Fatalf("pickServer allocates %v times, want 0", a)
	}
	v4Only, err := h.net.Attach("v4only", h.resAS, addr("198.51.100.54"))
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []*netsim.Host{h.resHost, v4Only} {
		r := &Resolver{Host: host, rng: rand.New(rand.NewSource(5))}
		ref := rand.New(rand.NewSource(5))
		var usable []netip.Addr
		for _, s := range servers {
			if host.Addr(s.Is6()).IsValid() {
				usable = append(usable, s)
			}
		}
		for i := 0; i < 50; i++ {
			want := usable[ref.Intn(len(usable))]
			if got, ok := r.pickServer(servers); !ok || got != want {
				t.Fatalf("%s pick %d = %v, %v; want %v", host.Name, i, got, ok, want)
			}
		}
	}
	if _, ok := (&Resolver{Host: v4Only}).pickServer([]netip.Addr{addr("2001:db8:9::1")}); ok {
		t.Fatal("an IPv4-only host picked an IPv6 server")
	}
}

// TestBindPortAllocations pins an ephemeral port's bind and release at
// no allocation once the port maps have grown: every bind hands the
// host the one handler New made.
func TestBindPortAllocations(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 21})
	if !h.res.bindPort(40000) {
		t.Fatal("bindPort(40000) failed on a free port")
	}
	h.res.releasePort(40000)
	if a := testing.AllocsPerRun(100, func() {
		if !h.res.bindPort(40000) {
			t.Fatal("bindPort(40000) failed on a released port")
		}
		h.res.releasePort(40000)
	}); a != 0 {
		t.Fatalf("a bindPort+releasePort cycle allocates %v times, want 0", a)
	}
	if err := h.resHost.BindUDP(40000, nil); err != nil {
		t.Fatalf("port 40000 still bound after its release: %v", err)
	}
}

func TestDelegationCacheSkipsRootOnSecondQuery(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 5})
	h.query(t, "2000.a.dns-lab.org", dnswire.TypeA)
	logLen := len(h.authLog)
	h.query(t, "2001.b.dns-lab.org", dnswire.TypeA)
	// Second query must go straight to the dns-lab server: exactly one
	// more auth log entry.
	if len(h.authLog) != logLen+1 {
		t.Fatalf("auth log grew by %d entries, want 1 (delegations not cached?)", len(h.authLog)-logLen)
	}
}

func TestNegativeCacheRFC8020SubtreeCut(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 6})
	h.query(t, "gone.dns-lab.org", dnswire.TypeA)
	before := h.res.Stats.UpstreamQueries
	resp := h.query(t, "sub.gone.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("resp = %+v", resp)
	}
	if h.res.Stats.UpstreamQueries != before {
		t.Fatal("NXDOMAIN subtree cut not applied: upstream query issued for subdomain")
	}
}

func TestQnameMinimizationStrictHaltsOnNXDomain(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, QnameMin: true, Seed: 7})
	resp := h.query(t, "3000.src.dst.asn.kw.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("resp = %+v", resp)
	}
	// The full query name must never appear at the auth server (§3.6.4:
	// for 55% of QNAME-minimizing IPs the full QNAME never arrived).
	sawFull, sawMin := false, false
	for _, e := range h.authLog {
		if e.Name.Equal("3000.src.dst.asn.kw.dns-lab.org") {
			sawFull = true
		}
		if e.Name.Equal("kw.dns-lab.org") {
			sawMin = true
		}
	}
	if sawFull {
		t.Fatal("strict QNAME-minimizing resolver leaked the full query name")
	}
	if !sawMin {
		t.Fatalf("expected minimized query kw.dns-lab.org at auth; log: %+v", h.authLog)
	}
}

func TestQnameMinimizationLenientFallsBackToFull(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, QnameMin: true, QnameMinLenient: true, Seed: 8})
	resp := h.query(t, "3001.src.dst.asn.kw.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("resp = %+v", resp)
	}
	sawFull := false
	for _, e := range h.authLog {
		if e.Name.Equal("3001.src.dst.asn.kw.dns-lab.org") {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("lenient QNAME-minimizing resolver never sent the full name")
	}
}

func TestQnameMinimizationWithWildcardDescends(t *testing.T) {
	// §3.6.4's proposed fix: wildcard answers let minimizing resolvers
	// reach the full name.
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, QnameMin: true, Seed: 9})
	h.authZone.Wildcard = true
	resp := h.query(t, "3002.src.dst.asn.kw.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answer) == 0 {
		t.Fatalf("resp = %+v", resp)
	}
	sawFull := false
	for _, e := range h.authLog {
		if e.Name.Equal("3002.src.dst.asn.kw.dns-lab.org") {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("wildcard zone did not recover full-QNAME visibility")
	}
}

func TestTruncationTriggersTCPRetry(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 10})
	resp := h.query(t, "4000.probe.tc.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("resp = %+v", resp)
	}
	var tcpEntry *authserver.LogEntry
	for i := range h.authLog {
		e := &h.authLog[i]
		if e.Transport == authserver.TransportTCP && e.Name.Equal("4000.probe.tc.dns-lab.org") {
			tcpEntry = e
		}
	}
	if tcpEntry == nil {
		t.Fatalf("no TCP query at auth after truncation; log: %+v", h.authLog)
	}
	if tcpEntry.SYN == nil || tcpEntry.SYN.TCP == nil || !tcpEntry.SYN.TCP.SYN {
		t.Fatal("TCP log entry has no captured SYN for fingerprinting")
	}
	if h.res.Stats.UpstreamTCP != 1 {
		t.Fatalf("stats = %+v", h.res.Stats)
	}
}

func TestFixedPortResolverAlwaysUsesSamePort(t *testing.T) {
	h := buildHierarchy(t, Config{
		ACL: ACL{Open: true}, Ports: &FixedPort{Port: 53}, Seed: 11,
	})
	for i := 0; i < 10; i++ {
		h.query(t, dnswire.Name(string(rune('a'+i))+".q.dns-lab.org"), dnswire.TypeA)
	}
	ports := make(map[uint16]bool)
	for _, e := range h.authLog {
		if e.Transport == authserver.TransportUDP {
			ports[e.ClientPort] = true
		}
	}
	if len(ports) != 1 || !ports[53] {
		t.Fatalf("observed source ports %v, want only 53", ports)
	}
}

func TestUniformPortResolverVariesPorts(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 12})
	for i := 0; i < 10; i++ {
		h.query(t, dnswire.Name(string(rune('a'+i))+".r.dns-lab.org"), dnswire.TypeA)
	}
	ports := make(map[uint16]bool)
	for _, e := range h.authLog {
		ports[e.ClientPort] = true
		if e.ClientPort < 32768 || e.ClientPort >= 61000 {
			t.Fatalf("port %d outside the Linux pool", e.ClientPort)
		}
	}
	if len(ports) < 5 {
		t.Fatalf("only %d distinct ports over 10+ queries", len(ports))
	}
}

func TestForwarderRelaysThroughUpstream(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 13})
	// Attach an upstream open resolver in the infra AS.
	upHost, err := h.net.Attach("upstream", h.net.Registry.AS(10), addr("192.0.9.8"), addr("2001:db8:9::8"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(upHost, h.res.Roots, Config{
		ACL:   ACL{Open: true},
		Ports: NewUniform(oskernel.PoolIANA, rand.New(rand.NewSource(2))),
		Seed:  14,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the resolver with a forwarder on a fresh host.
	fwdHost, err := h.net.Attach("forwarder", h.resAS, addr("198.51.100.54"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(fwdHost, nil, Config{
		ACL:     ACL{Open: true},
		Ports:   NewUniform(oskernel.PoolLinux, rand.New(rand.NewSource(3))),
		Forward: []netip.Addr{addr("192.0.9.8")},
		Seed:    15,
	})
	if err != nil {
		t.Fatal(err)
	}

	var got *dnswire.Message
	h.client.BindUDP(7000, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.QR {
			got = m
		}
	})
	q := dnswire.NewQuery(9, "5000.fw.dns-lab.org", dnswire.TypeA)
	payload, _ := q.Pack()
	h.client.SendUDP(addr("192.0.2.10"), 7000, addr("198.51.100.54"), 53, payload)
	h.net.Run()

	if got == nil || got.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("forwarded response = %+v", got)
	}
	// The auth server must have seen the UPSTREAM's address, not the
	// forwarder's — the §5.4 signal.
	for _, e := range h.authLog {
		if !e.Name.Equal("5000.fw.dns-lab.org") {
			continue
		}
		if e.Client == addr("198.51.100.54") {
			t.Fatal("auth saw the forwarder directly; forwarding not in effect")
		}
		if e.Client != addr("192.0.9.8") && e.Client != addr("2001:db8:9::8") {
			t.Fatalf("auth saw unexpected client %v", e.Client)
		}
	}
}

func TestServFailWhenUpstreamUnreachable(t *testing.T) {
	h := buildHierarchy(t, Config{
		ACL: ACL{Open: true}, Seed: 16,
		Timeout: 500 * time.Millisecond, Retries: 1,
	})
	// Point the resolver at a root that doesn't exist.
	h.res.Roots = []netip.Addr{addr("192.0.9.99")}
	resp := h.query(t, "6000.dead.dns-lab.org", dnswire.TypeA)
	if resp == nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("resp = %+v, want SERVFAIL", resp)
	}
	if h.res.Stats.Timeouts < 2 {
		t.Fatalf("stats = %+v: expected initial attempt + retry to time out", h.res.Stats)
	}
}

func TestResolverRespondsFromQueriedAddress(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 17})
	var respSrc netip.Addr
	h.client.BindUDP(7100, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		respSrc = src
	})
	q := dnswire.NewQuery(9, "7000.addr.dns-lab.org", dnswire.TypeA)
	payload, _ := q.Pack()
	h.client.SendUDP(addr("2001:db8:30::10"), 7100, addr("2001:db8:20::53"), 53, payload)
	h.net.Run()
	if respSrc != addr("2001:db8:20::53") {
		t.Fatalf("response came from %v, want the queried v6 address", respSrc)
	}
}

func TestNewValidation(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 18})
	host, err := h.net.Attach("bad", h.resAS, addr("198.51.100.99"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(host, nil, Config{ACL: ACL{Open: true}, Ports: &FixedPort{Port: 53}}); err == nil {
		t.Fatal("resolver with neither roots nor forwarders accepted")
	}
	if _, err := New(host, h.res.Roots, Config{ACL: ACL{Open: true}}); err == nil {
		t.Fatal("resolver with nil port allocator accepted")
	}
}

// buildSpoofedUDP builds a raw UDP datagram with an arbitrary source.
func buildSpoofedUDP(src, dst netip.Addr, sport, dport uint16, payload []byte) ([]byte, error) {
	return packetBuildUDP(src, dst, sport, dport, payload)
}
