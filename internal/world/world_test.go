package world

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/ditl"
	"repro/internal/dnswire"
)

func buildSmall(t *testing.T, opts Options) (*ditl.Population, *World) {
	t.Helper()
	pop := ditl.Generate(ditl.Params{Seed: 21, ASes: 60})
	reg, err := BuildRegistry(pop, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWith(pop, reg, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pop, w
}

func TestBuildBasicInvariants(t *testing.T) {
	pop, w := buildSmall(t, Options{})
	if len(w.Roots) != 2 {
		t.Fatalf("roots = %v", w.Roots)
	}
	if len(w.Auth) != 3 {
		t.Fatalf("auth servers = %d, want ns1 + ns-v4 + ns-v6", len(w.Auth))
	}
	if len(w.PublicDNS) != 4 {
		t.Fatalf("public DNS addrs = %v", w.PublicDNS)
	}
	if w.Scanner.AS.OSAV {
		t.Fatal("scanner AS must lack OSAV (§3.4)")
	}
	// Every live resolver with an address must be built.
	want := 0
	for _, as := range pop.ASes {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			if r.HasV4() || r.HasV6() {
				want++
			}
		}
	}
	seen := make(map[any]bool)
	for _, res := range w.Resolvers {
		seen[res] = true
	}
	if len(seen) != want {
		t.Fatalf("built %d resolvers, want %d", len(seen), want)
	}
}

func TestBuildDSAVOverrides(t *testing.T) {
	pop, w := buildSmall(t, Options{AllDSAV: true})
	for _, spec := range pop.ASes {
		if as := w.Reg.AS(spec.ASN); !as.DSAV {
			t.Fatalf("AllDSAV: %v lacks DSAV", spec.ASN)
		}
	}
	_, w2 := buildSmall(t, Options{NoDSAV: true})
	for _, spec := range pop.ASes {
		if as := w2.Reg.AS(spec.ASN); as.DSAV {
			t.Fatalf("NoDSAV: %v has DSAV", spec.ASN)
		}
	}
}

func TestBuildWildcardZone(t *testing.T) {
	_, w := buildSmall(t, Options{Wildcard: true})
	if !w.MainZone.Wildcard {
		t.Fatal("wildcard option not applied")
	}
}

func TestInfraResolvesExperimentNames(t *testing.T) {
	// A public DNS resolver must resolve an experiment name through the
	// full root -> org -> dns-lab chain, landing NXDOMAIN.
	_, w := buildSmall(t, Options{})
	var rcode dnswire.RCode
	got := false
	client := w.Scanner
	client.BindUDP(9999, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.QR {
			rcode, got = m.RCode, true
		}
	})
	q := dnswire.NewQuery(7, "123.v4-1-2-3-4.v4-5-6-7-8.64500.x1.dns-lab.org", dnswire.TypeA)
	payload, _ := q.Pack()
	client.SendUDP(w.ScannerAddr4, 9999, w.PublicDNS[0], 53, payload)
	w.Net.Run()
	if !got || rcode != dnswire.RCodeNXDomain {
		t.Fatalf("got=%v rcode=%v", got, rcode)
	}
	// The query must have been logged at ns1 with the full name.
	found := false
	for _, e := range w.Auth[0].Log {
		if e.Name.Equal("123.v4-1-2-3-4.v4-5-6-7-8.64500.x1.dns-lab.org") {
			found = true
		}
	}
	if !found {
		t.Fatal("experiment name never reached ns1")
	}
}

func TestV4OnlySubzoneServedByV4OnlyServer(t *testing.T) {
	_, w := buildSmall(t, Options{})
	client := w.Scanner
	q := dnswire.NewQuery(8, "1.a.b.1.kw.v4.dns-lab.org", dnswire.TypeA)
	payload, _ := q.Pack()
	client.SendUDP(w.ScannerAddr4, 9998, w.PublicDNS[0], 53, payload)
	w.Net.Run()
	// The v4-only server (Auth[1]) must have seen the query over v4.
	found := false
	for _, e := range w.Auth[1].Log {
		if e.Name.Equal("1.a.b.1.kw.v4.dns-lab.org") {
			found = true
			if !e.Client.Is4() {
				t.Fatalf("v4-only zone queried over %v", e.Client)
			}
		}
	}
	if !found {
		t.Fatal("v4 subzone query never reached ns-v4")
	}
}

func TestTCZoneForcesTCP(t *testing.T) {
	_, w := buildSmall(t, Options{})
	client := w.Scanner
	q := dnswire.NewQuery(9, "1.a.b.1.kw.tc.dns-lab.org", dnswire.TypeA)
	payload, _ := q.Pack()
	client.SendUDP(w.ScannerAddr4, 9997, w.PublicDNS[0], 53, payload)
	w.Net.Run()
	sawTCP := false
	for _, e := range w.Auth[0].Log {
		if e.Name.Equal("1.a.b.1.kw.tc.dns-lab.org") && e.Transport.String() == "tcp" {
			sawTCP = true
			if e.SYN == nil {
				t.Fatal("TCP query logged without SYN")
			}
		}
	}
	if !sawTCP {
		t.Fatal("tc zone query never arrived over TCP")
	}
}

func TestMiddleboxInterceptorsInstalled(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 22, ASes: 300, MiddleboxASFraction: 0.2})
	reg, err := BuildRegistry(pop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWith(pop, reg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb := 0
	for _, as := range pop.ASes {
		if as.Middlebox {
			mb++
		}
	}
	if mb == 0 {
		t.Skip("no middlebox AS generated")
	}
	// Probe a dead target in a middlebox, no-DSAV AS: the middlebox
	// should answer for it.
	var probed bool
	for _, as := range pop.ASes {
		if !as.Middlebox || as.DSAV || len(as.DeadTargets) == 0 {
			continue
		}
		var dead netip.Addr
		for _, d := range as.DeadTargets {
			if d.Is4() {
				dead = d
				break
			}
		}
		if !dead.IsValid() {
			continue
		}
		q := dnswire.NewQuery(3, "55.x.y.1.kw.dns-lab.org", dnswire.TypeA)
		payload, _ := q.Pack()
		w.Scanner.SendUDP(w.ScannerAddr4, 9996, dead, 53, payload)
		w.Net.Run()
		for _, e := range w.Auth[0].Log {
			if e.Name.Equal("55.x.y.1.kw.dns-lab.org") {
				probed = true
			}
		}
		break
	}
	if !probed {
		t.Skip("no suitable middlebox AS with dead v4 target; interception untested in this seed")
	}
}
