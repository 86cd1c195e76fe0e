package resolver

// Tests for the layer stack itself: ValidateStack/DefaultStack rules,
// forwarder-chain advancement, loop detection (deterministic cycles and
// detrand-seeded random topologies), the crash-without-cache-layer
// regression, and the FuzzStackBuild target.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/routing"
)

func TestValidateStack(t *testing.T) {
	cases := []struct {
		names []string
		ok    bool
	}{
		{[]string{"acl", "cache", "qmin", "forward", "iterate"}, true},
		{[]string{"cache", "iterate"}, true},
		{[]string{"forward"}, true},
		{[]string{"iterate"}, true},
		{[]string{"acl", "cache", "forward"}, true},
		{[]string{}, false},                            // no resolution layer
		{[]string{"acl", "cache"}, false},              // no resolution layer
		{[]string{"cache", "acl", "iterate"}, false},   // out of order
		{[]string{"cache", "cache", "iterate"}, false}, // duplicate
		{[]string{"cache", "qmin", "forward"}, false},  // qmin without iterate
		{[]string{"cache", "bogus", "iterate"}, false}, // unknown
	}
	for _, c := range cases {
		err := ValidateStack(c.names)
		if (err == nil) != c.ok {
			t.Errorf("ValidateStack(%v) = %v, want ok=%t", c.names, err, c.ok)
		}
	}
}

func TestDefaultStackShapes(t *testing.T) {
	roots := []netip.Addr{addr("192.0.9.1")}
	up := []netip.Addr{addr("192.0.9.8")}
	cases := []struct {
		name  string
		roots []netip.Addr
		cfg   Config
		want  string
	}{
		{"open-iterative", roots, Config{ACL: ACL{Open: true}}, "cache iterate"},
		{"closed-iterative", roots, Config{}, "acl cache iterate"},
		{"qmin", roots, Config{ACL: ACL{Open: true}, QnameMin: true}, "cache qmin iterate"},
		{"pure-forwarder", nil, Config{ACL: ACL{Open: true}, Forward: up}, "cache forward"},
		{"chain-forwarder", nil, Config{ACL: ACL{Open: true}, ForwardChain: up}, "cache forward"},
		{"mixed", roots, Config{ACL: ACL{Open: true}, Forward: up, ForwardFraction: 0.5}, "cache forward iterate"},
		{"qmin-forwarder-no-roots", nil, Config{ACL: ACL{Open: true}, Forward: up, QnameMin: true}, "cache forward"},
	}
	for _, c := range cases {
		got := strings.Join(DefaultStack(c.roots, c.cfg), " ")
		if got != c.want {
			t.Errorf("%s: DefaultStack = %q, want %q", c.name, got, c.want)
		}
		if err := ValidateStack(DefaultStack(c.roots, c.cfg)); err != nil {
			t.Errorf("%s: default stack invalid: %v", c.name, err)
		}
	}
}

func TestNewRejectsBadStacks(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 30})
	host, err := h.net.Attach("stacky", h.resAS, addr("198.51.100.90"))
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{ACL: ACL{Open: true}, Ports: &FixedPort{Port: 53}, Layers: []string{"cache"}},
		{ACL: ACL{Open: true}, Ports: &FixedPort{Port: 53}, Layers: []string{"iterate", "cache"}},
		{ACL: ACL{Open: true}, Ports: &FixedPort{Port: 53}, Layers: []string{"cache", "forward"}}, // no upstreams configured
		{ACL: ACL{Open: true}, Ports: &FixedPort{Port: 53},
			Forward: []netip.Addr{addr("192.0.9.8")}, ForwardChain: []netip.Addr{addr("192.0.9.8")}},
	}
	for i, cfg := range bad {
		if _, err := New(host, h.res.Roots, cfg); err == nil {
			t.Errorf("case %d: New accepted invalid stack config %+v", i, cfg)
		}
	}
}

// chainWorld attaches count chain-forwarder resolvers to the hierarchy
// at 198.51.100.(60+i), with chains[i] naming each resolver's hop list
// by index; -1 denotes the live upstream recursive at 192.0.9.8.
type chainWorld struct {
	h    *hierarchy
	res  []*Resolver
	addr []netip.Addr
}

func buildChainWorld(t testing.TB, h *hierarchy, chains [][]int) *chainWorld {
	t.Helper()
	upHost, err := h.net.Attach("chain-upstream", h.net.Registry.AS(10), addr("192.0.9.8"), addr("2001:db8:9::8"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(upHost, h.res.Roots, Config{
		ACL:   ACL{Open: true},
		Ports: NewUniform(oskernel.PoolIANA, rand.New(rand.NewSource(2))),
		Seed:  56,
	}); err != nil {
		t.Fatal(err)
	}
	w := &chainWorld{h: h}
	for i := range chains {
		w.addr = append(w.addr, addr(fmt.Sprintf("198.51.100.%d", 60+i)))
	}
	upAddr := addr("192.0.9.8")
	for i, hops := range chains {
		host, err := h.net.Attach(fmt.Sprintf("chain%d", i), h.resAS, w.addr[i])
		if err != nil {
			t.Fatal(err)
		}
		chain := make([]netip.Addr, 0, len(hops))
		for _, hop := range hops {
			if hop < 0 {
				chain = append(chain, upAddr)
			} else {
				chain = append(chain, w.addr[hop])
			}
		}
		r, err := New(host, nil, Config{
			ACL:          ACL{Open: true},
			Ports:        NewUniform(oskernel.PoolLinux, rand.New(rand.NewSource(int64(10+i)))),
			ForwardChain: chain,
			Timeout:      200 * time.Millisecond,
			Retries:      1,
			Seed:         int64(200 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		w.res = append(w.res, r)
	}
	return w
}

// ask sends one query to chain resolver idx and returns the response
// (nil if the network settles without one).
func (w *chainWorld) ask(t testing.TB, idx int, name dnswire.Name) *dnswire.Message {
	t.Helper()
	var got *dnswire.Message
	port := uint16(42000 + idx)
	w.h.client.UnbindUDP(port)
	w.h.client.BindUDP(port, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.QR {
			got = m
		}
	})
	q := dnswire.NewQuery(77, name, dnswire.TypeA)
	payload, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.h.client.SendUDP(addr("192.0.2.10"), port, w.addr[idx], 53, payload); err != nil {
		t.Fatal(err)
	}
	w.h.net.Run()
	return got
}

func TestForwardChainAdvancesPastDeadHop(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 31})
	h.authZone.AddAddr("chained.dns-lab.org", addr("192.0.9.101"), 300)
	// Attach the live upstream recursive; hop 0 is a dead address, hop 1
	// is that upstream.
	buildChainWorld(t, h, nil)
	dead := addr("198.51.100.250")
	host, err := h.net.Attach("chain-dead-first", h.resAS, addr("198.51.100.70"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(host, nil, Config{
		ACL:          ACL{Open: true},
		Ports:        NewUniform(oskernel.PoolLinux, rand.New(rand.NewSource(77))),
		ForwardChain: []netip.Addr{dead, addr("192.0.9.8")},
		Timeout:      200 * time.Millisecond,
		Retries:      1,
		Seed:         300,
	})
	if err != nil {
		t.Fatal(err)
	}

	var got *dnswire.Message
	h.client.BindUDP(43000, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.QR {
			got = m
		}
	})
	q := dnswire.NewQuery(78, "chained.dns-lab.org", dnswire.TypeA)
	payload, _ := q.Pack()
	h.client.SendUDP(addr("192.0.2.10"), 43000, addr("198.51.100.70"), 53, payload)
	h.net.Run()

	if got == nil || got.RCode != dnswire.RCodeNoError || len(got.Answer) == 0 {
		t.Fatalf("chain did not advance past dead hop: resp=%+v stats=%+v", got, r.Stats)
	}
	if r.Stats.Timeouts < 2 {
		t.Fatalf("expected dead hop 0 to time out first: %+v", r.Stats)
	}
	if r.Stats.Forwarded < 2 {
		t.Fatalf("expected a forward per hop: %+v", r.Stats)
	}
}

func TestSelfForwardingLoopRefused(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 32})
	w := buildChainWorld(t, h, [][]int{{0}}) // resolver 0 forwards to itself
	resp := w.ask(t, 0, "self.dns-lab.org")
	if resp == nil {
		t.Fatal("self-forwarding resolver never answered the client")
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL after self-forward loop", resp.RCode)
	}
	if w.res[0].Stats.LoopsDetected == 0 {
		t.Fatalf("loop guard never fired: %+v", w.res[0].Stats)
	}
	// One probe, refused on arrival: no cascade of retransmissions to
	// itself beyond the single in-flight attempt's retries.
	if w.res[0].Stats.Forwarded != 1 {
		t.Fatalf("self-loop duplicated probes: %+v", w.res[0].Stats)
	}
}

func TestTwoNodeForwardCycleTerminates(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 33})
	w := buildChainWorld(t, h, [][]int{{1}, {0}}) // A→B, B→A
	resp := w.ask(t, 0, "cycle.dns-lab.org")
	if resp == nil {
		t.Fatal("cycle never resolved to a client answer")
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL around the cycle", resp.RCode)
	}
	if w.res[0].Stats.LoopsDetected+w.res[1].Stats.LoopsDetected == 0 {
		t.Fatalf("no loop detected around A→B→A: A=%+v B=%+v", w.res[0].Stats, w.res[1].Stats)
	}
}

// TestLoopDetectionPropertyRandomTopologies is the property test:
// random forwarder-chain topologies — cycles and self-forwarding very
// much included — must terminate within the depth bound, answer the
// client, and never emit a duplicated probe packet. Topologies are
// drawn with detrand causal-identity seeds, so every run of the test
// examines the same pinned family.
func TestLoopDetectionPropertyRandomTopologies(t *testing.T) {
	const resolvers = 5
	for trial := 0; trial < 24; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := detrand.Rand(0x100d7e57, uint64(trial)) // causal identity: (test domain, trial)
			h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: int64(40 + trial)})
			h.authZone.AddAddr("prop.dns-lab.org", addr("192.0.9.102"), 300)

			chains := make([][]int, resolvers)
			for i := range chains {
				hops := 1 + rng.Intn(3)
				for k := 0; k < hops; k++ {
					// Bias toward other chain resolvers (loops!) with an
					// occasional exit to the real upstream.
					if rng.Intn(4) == 0 {
						chains[i] = append(chains[i], -1)
					} else {
						chains[i] = append(chains[i], rng.Intn(resolvers))
					}
				}
			}
			w := buildChainWorld(t, h, chains)

			// Record every delivered DNS query packet; duplicates (same
			// bytes delivered twice) would mean a duplicated probe, since
			// every legitimate attempt draws a fresh transaction ID.
			seen := make(map[string]int)
			h.net.SetDeliveryHook(func(now time.Duration, pkt *packet.Packet, dstAS *routing.AS, crossed bool) {
				if pkt == nil || pkt.UDP == nil || pkt.DstPort() != 53 {
					return
				}
				seen[string(pkt.Raw)]++
			})
			defer h.net.SetDeliveryHook(nil)

			entry := rng.Intn(resolvers)
			resp := w.ask(t, entry, "prop.dns-lab.org")
			if resp == nil {
				t.Fatalf("topology %v entry %d: client never answered", chains, entry)
			}
			if resp.RCode != dnswire.RCodeServFail && resp.RCode != dnswire.RCodeNoError {
				t.Fatalf("topology %v entry %d: unexpected rcode %v", chains, entry, resp.RCode)
			}
			for raw, n := range seen {
				if n > 1 {
					t.Fatalf("topology %v: probe delivered %d times (%d bytes) — duplicated probe", chains, n, len(raw))
				}
			}
			// Termination within the depth bound: the entry resolver's own
			// probes for its single client job are bounded by hops × attempts.
			maxProbes := uint64(len(chains[entry]) * 2) // Retries=1 → 2 attempts per hop
			if got := w.res[entry].Stats.Forwarded; got > maxProbes {
				t.Fatalf("topology %v entry %d: %d forwards exceed depth bound %d", chains, entry, got, maxProbes)
			}
		})
	}
}

// TestCrashWithoutCacheLayerSurvives is the regression test for the
// crash-flush fix: a stack compiled without a cache layer must survive
// Crash cleanly — no panic, no CacheFlush event — and keep serving.
func TestCrashWithoutCacheLayerSurvives(t *testing.T) {
	h := buildHierarchy(t, Config{ACL: ACL{Open: true}, Seed: 34})
	upHost, err := h.net.Attach("upstream", h.net.Registry.AS(10), addr("192.0.9.8"), addr("2001:db8:9::8"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(upHost, h.res.Roots, Config{
		ACL:   ACL{Open: true},
		Ports: NewUniform(oskernel.PoolIANA, rand.New(rand.NewSource(2))),
		Seed:  57,
	}); err != nil {
		t.Fatal(err)
	}
	obs := &traceObs{}
	host, err := h.net.Attach("cacheless", h.resAS, addr("198.51.100.80"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(host, nil, Config{
		ACL:           ACL{Open: true},
		Ports:         NewUniform(oskernel.PoolLinux, rand.New(rand.NewSource(9))),
		Forward:       []netip.Addr{addr("192.0.9.8")},
		Layers:        []string{LayerForward}, // no cache layer at all
		Seed:          400,
		CacheObserver: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.StackNames(), " "); got != "forward" {
		t.Fatalf("stack = %q, want bare forward", got)
	}

	ask := func(id uint16, name dnswire.Name) *dnswire.Message {
		var got *dnswire.Message
		h.client.UnbindUDP(44000)
		h.client.BindUDP(44000, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
			if m, err := dnswire.Unpack(payload); err == nil && m.QR {
				got = m
			}
		})
		q := dnswire.NewQuery(id, name, dnswire.TypeA)
		payload, _ := q.Pack()
		h.client.SendUDP(addr("192.0.2.10"), 44000, addr("198.51.100.80"), 53, payload)
		h.net.Run()
		return got
	}

	h.authZone.AddAddr("alive.dns-lab.org", addr("192.0.9.103"), 300)
	if resp := ask(1, "alive.dns-lab.org"); resp == nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("pre-crash resp = %+v", resp)
	}

	r.Crash(h.net.Now()) // must not panic, must not emit CacheFlush
	if r.Stats.Crashes != 1 {
		t.Fatalf("stats = %+v", r.Stats)
	}
	for _, e := range obs.events {
		if strings.HasPrefix(e, "flush") {
			t.Fatalf("cache-less stack emitted a flush on crash: %v", obs.events)
		}
	}
	if len(r.pending) != 0 {
		t.Fatalf("pending not dropped on crash: %d", len(r.pending))
	}

	if resp := ask(2, "alive.dns-lab.org"); resp == nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("post-crash resp = %+v", resp)
	}
	// No cache layer: nothing is ever cached, observed, or served stale.
	if len(obs.events) != 0 {
		t.Fatalf("cache-less stack emitted cache events: %v", obs.events)
	}
	if _, ok := r.CachedAnswer("alive.dns-lab.org", dnswire.TypeA); ok {
		t.Fatal("CachedAnswer returned a hit from a stack with no cache layer")
	}
}

// TestCrashWithCacheLayerFlushes pins the inverse: with a cache layer,
// Crash flushes exactly once through the layer.
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

// FuzzStackBuild: arbitrary comma-separated layer-name lists must
// either build a valid resolver stack or fail cleanly — never panic,
// and never compile a stack whose walk order deviates from canonical
// rank order.
func FuzzStackBuild(f *testing.F) {
	f.Add("acl,cache,qmin,forward,iterate")
	f.Add("cache,iterate")
	f.Add("forward")
	f.Add("")
	f.Add("iterate,cache")
	f.Add("cache,cache")
	f.Add("bogus")
	f.Add("acl,forward,iterate")
	f.Add("qmin")
	f.Add(strings.Repeat("cache,", 40) + "iterate")

	reg := routing.NewRegistry()
	resAS := &routing.AS{ASN: 20, Prefixes: []netip.Prefix{prefix("198.51.100.0/24")}}
	if err := reg.Add(resAS); err != nil {
		f.Fatal(err)
	}
	n := netsim.New(reg, netsim.Config{Seed: 7})
	next := 1

	rank := map[string]int{"acl": 0, "cache": 1, "qmin": 2, "forward": 3, "iterate": 4}

	f.Fuzz(func(t *testing.T, spec string) {
		var names []string
		if spec != "" {
			names = strings.Split(spec, ",")
		}
		err := ValidateStack(names)
		if err != nil {
			return // clean failure is a correct outcome
		}
		// A validated stack must build (the config below satisfies every
		// layer's needs: upstreams for forward, roots for iterate).
		next++
		host, aerr := n.Attach(fmt.Sprintf("fuzz%d", next), resAS, addr(fmt.Sprintf("198.51.100.%d", 1+next%200)))
		if aerr != nil {
			t.Skip("address space exhausted")
		}
		r, nerr := New(host, []netip.Addr{addr("192.0.9.1")}, Config{
			ACL:     ACL{Open: true},
			Ports:   &FixedPort{Port: 53},
			Forward: []netip.Addr{addr("192.0.9.8")},
			Layers:  names,
			Seed:    1,
		})
		if nerr != nil {
			t.Fatalf("validated stack %v failed to build: %v", names, nerr)
		}
		last := -1
		for _, name := range r.StackNames() {
			rk, ok := rank[name]
			if !ok {
				t.Fatalf("compiled stack contains unregistered layer %q", name)
			}
			if rk <= last {
				t.Fatalf("compiled stack %v out of canonical order", r.StackNames())
			}
			last = rk
		}
	})
}
