package scanner

import (
	"net/netip"
	"slices"
	"sort"
	"testing"

	"repro/internal/ditl"
	"repro/internal/routing"
	"repro/internal/world"
)

// sourcesForScan is SourcesFor with the IPv6 hit list found by a pass
// over the whole map per target, the reference the sorted search must
// reproduce address for address.
func sourcesForScan(s *Scanner, t Target) []netip.Addr {
	as := s.Reg.AS(t.ASN)
	v6 := t.Addr.Is6()
	rng := s.targetRand(t.Addr)
	sources := make([]netip.Addr, 0, s.Cfg.MaxOtherPrefix+4)

	own := routing.SubnetOf(t.Addr)
	var prefixes []netip.Prefix
	if v6 {
		prefixes = as.V6Prefixes()
	} else {
		prefixes = as.V4Prefixes()
	}
	var candidates []netip.Prefix
	seen := make(map[netip.Prefix]bool)
	if v6 && len(s.Cfg.V6HitList) > 0 {
		var hot []netip.Prefix
		for sub := range s.Cfg.V6HitList {
			if sub == own {
				continue
			}
			for _, p := range prefixes {
				if p.Contains(sub.Addr()) {
					hot = append(hot, sub)
					break
				}
			}
		}
		sort.Slice(hot, func(i, j int) bool { return hot[i].Addr().Less(hot[j].Addr()) })
		for _, sub := range hot {
			if !seen[sub] {
				seen[sub] = true
				candidates = append(candidates, sub)
			}
		}
	}
	for _, p := range prefixes {
		for _, sub := range routing.EnumerateSubnets(p, s.Cfg.MaxOtherPrefix+1) {
			if sub != own && !seen[sub] {
				seen[sub] = true
				candidates = append(candidates, sub)
			}
		}
	}
	for _, sub := range candidates {
		if len(sources) >= s.Cfg.MaxOtherPrefix {
			break
		}
		sources = append(sources, routing.RandomHostAddr(sub, rng))
	}
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
	sources = append(sources, t.Addr)
	if v6 {
		sources = append(sources, netip.MustParseAddr("::1"))
	} else {
		sources = append(sources, netip.MustParseAddr("127.0.0.1"))
	}
	return sources
}

// TestSourcesForMatchesHitListScan compares SourcesFor with the
// per-target scan for every IPv6 target of a 100-AS population, under
// the hit list the campaign derives from it.
func TestSourcesForMatchesHitListScan(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 3, ASes: 100})
	reg, err := world.BuildRegistry(pop, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hl := make(map[netip.Prefix]bool)
	s := NewPlanner(reg, Config{Seed: 5, V6HitList: hl})
	admit := func(a netip.Addr) {
		if a.IsValid() {
			s.AdmitOne(a)
			if a.Is6() {
				hl[routing.SubnetOf(a)] = true
			}
		}
	}
	pop.EachAS(nil, func(_ int, as *ditl.ASSpec) {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			admit(r.Addr4)
			admit(r.Addr6)
		}
		for _, d := range as.DeadTargets {
			admit(d)
		}
	})

	v6, fromList := 0, 0
	for _, tgt := range s.Targets {
		if !tgt.Addr.Is6() {
			continue
		}
		v6++
		got, want := s.SourcesFor(tgt), sourcesForScan(s, tgt)
		if !slices.Equal(got, want) {
			t.Fatalf("target %v: SourcesFor\n%v\nscan\n%v", tgt.Addr, got, want)
		}
		for _, src := range got {
			if sub := routing.SubnetOf(src); hl[sub] && sub != routing.SubnetOf(tgt.Addr) {
				fromList++
				break
			}
		}
	}
	t.Logf("%d v6 targets, %d drew a hit-listed source", v6, fromList)
	if v6 < 100 || fromList == 0 {
		t.Fatalf("%d v6 targets, %d drew a hit-listed source: the population does not exercise the hit list", v6, fromList)
	}
}

// TestSourcesForHitListOverlappingPrefixes covers what the population
// does not: an AS whose prefixes nest, so one subnet lies in two of
// them, and hit-list entries outside every prefix and of the other
// family.
func TestSourcesForHitListOverlappingPrefixes(t *testing.T) {
	reg := routing.NewRegistry()
	as := &routing.AS{ASN: 64500, Prefixes: []netip.Prefix{
		prefix("2a00:5:0:8000::/49"), prefix("2a00:5::/48"), prefix("5.1.0.0/22"),
	}}
	if err := reg.Add(as); err != nil {
		t.Fatal(err)
	}
	s := NewPlanner(reg, Config{Seed: 2, V6HitList: map[netip.Prefix]bool{
		prefix("2a00:5:0:9000::/64"): true,
		prefix("2a00:5:0:1234::/64"): true,
		prefix("2a00:5:0:ffff::/64"): false, // listed keys count whatever their value
		prefix("2a00:5::/64"):        true,  // the target's own subnet
		prefix("2a00:6::/64"):        true,
		prefix("5.1.0.0/24"):         true,
	}})
	for _, a := range []string{"2a00:5::53", "2a00:5:0:9000::1", "5.1.1.7"} {
		tgt := Target{Addr: addr(a), ASN: 64500}
		if got, want := s.SourcesFor(tgt), sourcesForScan(s, tgt); !slices.Equal(got, want) {
			t.Fatalf("target %v: SourcesFor\n%v\nscan\n%v", tgt.Addr, got, want)
		}
	}
}
