package resolver

// The differential resolver-conformance harness: every scenario in the
// query × config × fault matrix is replayed through two identically
// seeded twin worlds — one whose subject resolver is this package's,
// one whose subject is internal/resolver/monolith, a frozen earlier
// snapshot — and the two runs must be event-for-event identical: every
// packet the network delivers or drops (netsim.Tracer), every question
// the authoritative server logs, every client response, every
// cache-observer event, and the final Stats counters. Every cell runs
// twice: once query by query, and once as a burst with every query in
// flight at once, so that the resolver's recycled job and attempt
// records overlap under loss, TCP retry and crashes. This is the
// permanent regression suite pinning the resolver's behaviour; see
// DESIGN.md §11.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/oskernel"
	"repro/internal/resolver/monolith"
	"repro/internal/routing"
)

// traceObs records cache-observer events as strings. Its method set
// structurally satisfies both resolver.CacheObserver and
// monolith.CacheObserver.
type traceObs struct{ events []string }

func (o *traceObs) CachePut(owner netip.Addr, insertedAt, expiry time.Duration) {
	o.events = append(o.events, fmt.Sprintf("put %v %d %d", owner, insertedAt, expiry))
}

func (o *traceObs) CacheServe(owner netip.Addr, insertedAt, expiry, now time.Duration) {
	o.events = append(o.events, fmt.Sprintf("serve %v %d %d %d", owner, insertedAt, expiry, now))
}

func (o *traceObs) CacheFlush(owner netip.Addr, now time.Duration) {
	o.events = append(o.events, fmt.Sprintf("flush %v %d", owner, now))
}

type confQuery struct {
	name  dnswire.Name
	qtype dnswire.Type
}

// confQueries exercises every response class the resolver core
// distinguishes: positive answers, cache hits, NXDOMAIN and the RFC
// 8020 subtree cut, NODATA, qmin descent across multiple labels,
// truncation → TCP retry, and repeats that only a warm cache changes.
var confQueries = []confQuery{
	{"www.dns-lab.org", dnswire.TypeA},
	{"www.dns-lab.org", dnswire.TypeA},                     // cache hit
	{"www.dns-lab.org", dnswire.TypeAAAA},                  // NODATA
	{"1000.src.dst.asn.kw.dns-lab.org", dnswire.TypeA},     // deep NXDOMAIN (qmin walk)
	{"sub.1000.src.dst.asn.kw.dns-lab.org", dnswire.TypeA}, // RFC 8020 cut
	{"4000.probe.tc.dns-lab.org", dnswire.TypeA},           // truncation → TCP
	{"2001.b.dns-lab.org", dnswire.TypeA},                  // delegation already cached
	{"www.dns-lab.org", dnswire.TypeA},                     // hit again, later
}

// confScenario is one cell of the config axis. cfg must build a fresh
// Config per call (port allocators are stateful).
type confScenario struct {
	name     string
	cfg      func(obs *traceObs) Config
	upstream bool // attach a live upstream resolver at 192.0.9.8
	wildcard bool // subject zone synthesizes wildcard answers
	recurse  bool // a forwarder keeps its root hints, as the world's mixed forwarders do
	queries  []confQuery
}

// confFault is one cell of the fault axis. crashAt times the crashes
// of a query-by-query run, which fall after the first query has been
// answered and so abandon nothing. burstCrashAt times those of a
// burst: its queries reach the resolver 10-30 ms in and the last
// answer of a clean open-iterative burst leaves about 210 ms in, so
// both crashes fall mid-resolution, with upstream queries pending and
// a TCP retry under way in most scenarios.
type confFault struct {
	name         string
	loss         float64
	crashAt      []time.Duration
	burstCrashAt []time.Duration
}

var confFaults = []confFault{
	{name: "clean"},
	{name: "loss", loss: 0.25},
	{
		name:         "crash",
		crashAt:      []time.Duration{800 * time.Millisecond, 2500 * time.Millisecond},
		burstCrashAt: []time.Duration{140 * time.Millisecond, 200 * time.Millisecond},
	},
}

func uniformPorts() PortAllocator {
	return NewUniform(oskernel.PoolLinux, rand.New(rand.NewSource(1)))
}

func confScenarios() []confScenario {
	open := ACL{Open: true}
	return []confScenario{
		{
			name: "open-iterative",
			cfg: func(obs *traceObs) Config {
				return Config{ACL: open, Ports: uniformPorts(), Seed: 101, CacheObserver: obs}
			},
		},
		{
			name: "closed-acl-allows-client",
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL:   ACL{Allowed: []netip.Prefix{prefix("192.0.2.0/24")}},
					Ports: uniformPorts(), Seed: 102, CacheObserver: obs,
				}
			},
		},
		{
			name: "closed-acl-refuses-client",
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL:   ACL{Allowed: []netip.Prefix{prefix("198.51.100.0/24")}},
					Ports: uniformPorts(), Seed: 103, CacheObserver: obs,
				}
			},
		},
		{
			name: "qmin-strict",
			cfg: func(obs *traceObs) Config {
				return Config{ACL: open, Ports: uniformPorts(), QnameMin: true, Seed: 104, CacheObserver: obs}
			},
		},
		{
			name: "qmin-lenient",
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL: open, Ports: uniformPorts(),
					QnameMin: true, QnameMinLenient: true, Seed: 105, CacheObserver: obs,
				}
			},
		},
		{
			name:     "qmin-strict-wildcard",
			wildcard: true,
			cfg: func(obs *traceObs) Config {
				return Config{ACL: open, Ports: uniformPorts(), QnameMin: true, Seed: 106, CacheObserver: obs}
			},
		},
		{
			name: "dns0x20",
			cfg: func(obs *traceObs) Config {
				return Config{ACL: open, Ports: uniformPorts(), Use0x20: true, Seed: 107, CacheObserver: obs}
			},
		},
		{
			name: "fixed-port-53",
			cfg: func(obs *traceObs) Config {
				return Config{ACL: open, Ports: &FixedPort{Port: 53}, Seed: 108, CacheObserver: obs}
			},
		},
		{
			name:     "pure-forwarder",
			upstream: true,
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL: open, Ports: uniformPorts(),
					Forward: []netip.Addr{addr("192.0.9.8")}, Seed: 109, CacheObserver: obs,
				}
			},
		},
		{
			name:     "mixed-fraction-forwarder",
			upstream: true,
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL: open, Ports: uniformPorts(),
					Forward: []netip.Addr{addr("192.0.9.8")}, ForwardFraction: 0.5,
					Seed: 110, CacheObserver: obs,
				}
			},
		},
		{
			name: "dead-upstream-forwarder",
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL: open, Ports: uniformPorts(),
					Forward: []netip.Addr{addr("192.0.9.99")},
					Timeout: 300 * time.Millisecond, Retries: 1,
					Seed: 111, CacheObserver: obs,
				}
			},
			queries: confQueries[:3], // every query times out; keep it short
		},
		{
			name:     "mixed-forwarder-recursing",
			upstream: true,
			recurse:  true,
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL: open, Ports: uniformPorts(),
					Forward: []netip.Addr{addr("192.0.9.8")}, ForwardFraction: 0.5,
					Seed: 112, CacheObserver: obs,
				}
			},
		},
		{
			name:     "closed-qmin-strict-forwarder",
			upstream: true,
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL:   ACL{Allowed: []netip.Prefix{prefix("192.0.2.0/24")}},
					Ports: uniformPorts(), QnameMin: true,
					Forward: []netip.Addr{addr("192.0.9.8")},
					Seed:    113, CacheObserver: obs,
				}
			},
		},
		{
			name:     "closed-qmin-lenient-mixed-forwarder",
			upstream: true,
			recurse:  true,
			cfg: func(obs *traceObs) Config {
				return Config{
					ACL:   ACL{Allowed: []netip.Prefix{prefix("192.0.2.0/24")}},
					Ports: uniformPorts(), QnameMin: true, QnameMinLenient: true,
					Forward: []netip.Addr{addr("192.0.9.8")}, ForwardFraction: 0.5,
					Seed: 114, CacheObserver: obs,
				}
			},
		},
	}
}

// confTrace is everything one run emits, normalized to strings.
// abandoned, counted for the resolver only, is how many pending
// upstream queries its crashes abandoned.
type confTrace struct {
	wire      []string
	authLog   []string
	responses []string
	cacheTr   []string
	stats     map[string]uint64
	abandoned int
}

// confWorld is the twin fixture: the resolver_test.go hierarchy plus a
// packet tracer, with the subject resolver's construction left to the
// implementation under test.
type confWorld struct {
	net      *netsim.Network
	tracer   *netsim.Tracer
	authLog  []authserver.LogEntry // queries ns1.dns-lab.org received
	authZone *authserver.Zone
	resHost  *netsim.Host
	client   *netsim.Host
	roots    []netip.Addr
}

func buildConfWorld(t *testing.T, sc confScenario, f confFault) *confWorld {
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
	n := netsim.New(reg, netsim.Config{Seed: 7, LossRate: f.loss})
	tracer := netsim.NewTracer(1 << 16)
	n.SetTracer(tracer)

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
	authZone.AddAddr("www.dns-lab.org", addr("192.0.9.100"), 300)
	authZone.Wildcard = sc.wildcard
	tcZone := authserver.NewZone("tc.dns-lab.org", soa())
	tcZone.AlwaysTruncate = true
	auth, err := authserver.New(authHost, authZone, tcZone)
	if err != nil {
		t.Fatal(err)
	}

	roots := []netip.Addr{rootAddr4, rootAddr6}

	// The upstream (environment, not subject) is always the live
	// implementation in BOTH worlds, so both subjects face identical
	// surroundings.
	if sc.upstream {
		upHost, err := n.Attach("upstream", infraAS, addr("192.0.9.8"), addr("2001:db8:9::8"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(upHost, roots, Config{
			ACL:   ACL{Open: true},
			Ports: NewUniform(oskernel.PoolIANA, rand.New(rand.NewSource(2))),
			Seed:  55,
		}); err != nil {
			t.Fatal(err)
		}
	}

	resHost, err := n.Attach("resolver", resAS, addr("198.51.100.53"), addr("2001:db8:20::53"))
	if err != nil {
		t.Fatal(err)
	}
	resHost.OS = oskernel.UbuntuModern

	client, err := n.Attach("client", clientAS, addr("192.0.2.10"), addr("2001:db8:30::10"))
	if err != nil {
		t.Fatal(err)
	}
	w := &confWorld{
		net: n, tracer: tracer, authZone: authZone,
		resHost: resHost, client: client, roots: roots,
	}
	auth.OnQuery = func(e authserver.LogEntry) { w.authLog = append(w.authLog, e) }
	return w
}

// runConf drives one scenario × fault cell against one implementation
// and returns its normalized trace. impl is "resolver" or "monolith".
// Query i goes out from client port 40000+i. Without burst, each query
// runs to completion before the next is sent; with it, every query is
// sent at once and the network runs once.
func runConf(t *testing.T, impl string, sc confScenario, f confFault, burst bool) *confTrace {
	t.Helper()
	w := buildConfWorld(t, sc, f)
	obs := &traceObs{}
	tr := &confTrace{}
	cfg := sc.cfg(obs)
	var (
		crash func(time.Duration)
		stats func() map[string]uint64
	)
	roots := w.roots
	if len(cfg.Forward) > 0 && !sc.recurse {
		roots = nil // pure forwarders carry no root hints
	}
	switch impl {
	case "resolver":
		r, err := New(w.resHost, roots, cfg)
		if err != nil {
			t.Fatal(err)
		}
		crash = func(now time.Duration) {
			tr.abandoned += len(r.pending)
			r.Crash(now)
		}
		stats = func() map[string]uint64 {
			s := r.Stats
			return map[string]uint64{
				"ClientQueries": s.ClientQueries, "Refused": s.Refused,
				"Responded": s.Responded, "UpstreamQueries": s.UpstreamQueries,
				"UpstreamTCP": s.UpstreamTCP, "Forwarded": s.Forwarded,
				"Timeouts": s.Timeouts, "ServFail": s.ServFail, "Crashes": s.Crashes,
			}
		}
	case "monolith":
		m, err := monolith.New(w.resHost, roots, monolith.Config{
			ACL:             monolith.ACL{Open: cfg.ACL.Open, Allowed: cfg.ACL.Allowed},
			Ports:           cfg.Ports,
			Forward:         cfg.Forward,
			ForwardFraction: cfg.ForwardFraction,
			QnameMin:        cfg.QnameMin,
			QnameMinLenient: cfg.QnameMinLenient,
			Timeout:         cfg.Timeout,
			Retries:         cfg.Retries,
			MaxSteps:        cfg.MaxSteps,
			Use0x20:         cfg.Use0x20,
			Seed:            cfg.Seed,
			CacheObserver:   obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		crash = m.Crash
		stats = func() map[string]uint64 {
			s := m.Stats
			return map[string]uint64{
				"ClientQueries": s.ClientQueries, "Refused": s.Refused,
				"Responded": s.Responded, "UpstreamQueries": s.UpstreamQueries,
				"UpstreamTCP": s.UpstreamTCP, "Forwarded": s.Forwarded,
				"Timeouts": s.Timeouts, "ServFail": s.ServFail, "Crashes": s.Crashes,
			}
		}
	default:
		t.Fatalf("unknown impl %q", impl)
	}

	crashAt := f.crashAt
	if burst {
		crashAt = f.burstCrashAt
	}
	for _, at := range crashAt {
		w.net.Q.After(at, func(now time.Duration) { crash(now) })
	}

	queries := sc.queries
	if queries == nil {
		queries = confQueries
	}
	resps := make([]string, len(queries))
	for i, q := range queries {
		port := uint16(40000 + i)
		w.client.BindUDP(port, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
			m, err := dnswire.Unpack(payload)
			if err != nil || !m.QR {
				return
			}
			resp := fmt.Sprintf("t=%d rcode=%d answers=%d", now, m.RCode, len(m.Answer))
			for _, rr := range m.Answer {
				resp += fmt.Sprintf(" [%s %d ttl=%d %v %s]", rr.Name, rr.Type, rr.TTL, rr.Addr, rr.Target)
			}
			resps[i] = resp
		})
		msg := dnswire.NewQuery(uint16(1000+i), q.name, q.qtype)
		payload, err := msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.client.SendUDP(addr("192.0.2.10"), port, addr("198.51.100.53"), 53, payload); err != nil {
			t.Fatal(err)
		}
		if !burst {
			w.net.Run()
			w.client.UnbindUDP(port)
		}
	}
	w.net.Run() // drain the burst, or any crash timers past the last query
	for i, q := range queries {
		w.client.UnbindUDP(uint16(40000 + i))
		tr.responses = append(tr.responses, fmt.Sprintf("q%d %s/%d -> %s", i, q.name, q.qtype, resps[i]))
	}

	for _, e := range w.tracer.Events() {
		tr.wire = append(tr.wire, e.String())
	}
	for _, e := range w.authLog {
		tr.authLog = append(tr.authLog, fmt.Sprintf("t=%d client=%v port=%d server=%v q=%s/%d transport=%d syn=%t",
			e.Time, e.Client, e.ClientPort, e.Server, e.Name, e.Type, e.Transport, e.SYN != nil))
	}
	tr.cacheTr = obs.events
	tr.stats = stats()
	return tr
}

func diffStrings(t *testing.T, kind string, mono, res []string) {
	t.Helper()
	n := len(mono)
	if len(res) > n {
		n = len(res)
	}
	for i := 0; i < n; i++ {
		var m, l string
		if i < len(mono) {
			m = mono[i]
		}
		if i < len(res) {
			l = res[i]
		}
		if m != l {
			t.Errorf("%s diverges at event %d:\n  monolith: %s\n  resolver: %s", kind, i, m, l)
			return
		}
	}
}

// diffConf requires the resolver's trace of a cell to equal the
// monolith's, event for event.
func diffConf(t *testing.T, mono, res *confTrace) {
	t.Helper()
	diffStrings(t, "wire", mono.wire, res.wire)
	diffStrings(t, "auth-log", mono.authLog, res.authLog)
	diffStrings(t, "client-responses", mono.responses, res.responses)
	diffStrings(t, "cache-trace", mono.cacheTr, res.cacheTr)
	for k, mv := range mono.stats {
		if rv := res.stats[k]; rv != mv {
			t.Errorf("Stats.%s: monolith=%d resolver=%d", k, mv, rv)
		}
	}
	if t.Failed() {
		t.Logf("monolith emitted %d wire events, resolver %d", len(mono.wire), len(res.wire))
	}
}

// TestConformanceLayeredMatchesMonolith is the differential suite: the
// full scenario × fault matrix, twin worlds, event-for-event equality.
func TestConformanceLayeredMatchesMonolith(t *testing.T) {
	for _, sc := range confScenarios() {
		for _, f := range confFaults {
			t.Run(sc.name+"/"+f.name, func(t *testing.T) {
				diffConf(t, runConf(t, "monolith", sc, f, false), runConf(t, "resolver", sc, f, false))
			})
		}
	}
}

// TestConformanceBurstMatchesMonolith replays the same matrix with every
// query of a cell in flight at once. Jobs and upstream attempts then
// overlap, so the resolver takes records that other queries' exchanges
// gave back while they still run, under loss, TCP retry and crashes.
// The crash cells time their crashes inside the burst, and between them
// they must abandon pending queries wherever the scenario sends any
// upstream.
func TestConformanceBurstMatchesMonolith(t *testing.T) {
	for _, sc := range confScenarios() {
		for _, f := range confFaults {
			t.Run(sc.name+"/"+f.name, func(t *testing.T) {
				mono, res := runConf(t, "monolith", sc, f, true), runConf(t, "resolver", sc, f, true)
				diffConf(t, mono, res)
				if len(f.burstCrashAt) > 0 && res.stats["UpstreamQueries"] > 0 && res.abandoned == 0 {
					t.Errorf("crashes at %v abandoned no pending query", f.burstCrashAt)
				}
			})
		}
	}
}

// TestConformanceConfigMatchesMonolith pins that the harness can express
// every configuration the resolver accepts: resolver.Config and
// monolith.Config declare the same fields in the same order.
func TestConformanceConfigMatchesMonolith(t *testing.T) {
	fields := func(typ reflect.Type) []string {
		names := make([]string, typ.NumField())
		for i := range names {
			names[i] = typ.Field(i).Name
		}
		return names
	}
	got, want := fields(reflect.TypeOf(Config{})), fields(reflect.TypeOf(monolith.Config{}))
	if !slices.Equal(got, want) {
		t.Fatalf("resolver.Config fields %v, monolith.Config fields %v", got, want)
	}
}
