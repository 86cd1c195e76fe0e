package ditl

import (
	"math"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/resolver"
	"repro/internal/routing"
	"repro/internal/stats"
)

// TestParamsValidate rejects each count field below zero and each
// fraction outside [0, 1] or NaN, naming the field, and accepts the
// zero Params (every default) and the bounds.
func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err != nil {
		t.Fatalf("zero Params: %v", err)
	}
	if err := (Params{ASes: 1, V6ASFraction: 1, BogonFilterFraction: 1}).Validate(); err != nil {
		t.Fatalf("bounds rejected: %v", err)
	}
	for _, tc := range []struct {
		field string
		set   func(*Params)
	}{
		{"ASes", func(p *Params) { p.ASes = -3 }},
		{"DeadTargetMean", func(p *Params) { p.DeadTargetMean = -1 }},
		{"LiveResolverMean", func(p *Params) { p.LiveResolverMean = -1 }},
		{"DeadTargetMeanV6", func(p *Params) { p.DeadTargetMeanV6 = -1 }},
		{"V6ASFraction", func(p *Params) { p.V6ASFraction = -0.1 }},
		{"ForwarderFraction", func(p *Params) { p.ForwarderFraction = 1.5 }},
		{"ForwarderOpenFraction", func(p *Params) { p.ForwarderOpenFraction = math.NaN() }},
		{"QnameMinFraction", func(p *Params) { p.QnameMinFraction = math.Inf(1) }},
		{"QnameMinStrictFraction", func(p *Params) { p.QnameMinStrictFraction = -1 }},
		{"StrictClosedFraction", func(p *Params) { p.StrictClosedFraction = 2 }},
		{"IDSASFraction", func(p *Params) { p.IDSASFraction = math.NaN() }},
		{"MiddleboxASFraction", func(p *Params) { p.MiddleboxASFraction = -0.5 }},
		{"BogonFilterFraction", func(p *Params) { p.BogonFilterFraction = 1.01 }},
	} {
		p := Params{Seed: 1, ASes: 4}
		tc.set(&p)
		err := p.Validate()
		if err == nil {
			t.Fatalf("%s: bad value accepted", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field+" = ") {
			t.Fatalf("%s: error does not name the field: %v", tc.field, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p1 := Generate(Params{Seed: 11, ASes: 50})
	p2 := Generate(Params{Seed: 11, ASes: 50})
	s1, s2 := p1.Summarize(), p2.Summarize()
	if s1 != s2 {
		t.Fatalf("same seed produced different populations: %+v vs %+v", s1, s2)
	}
	p3 := Generate(Params{Seed: 12, ASes: 50})
	if p3.Summarize() == s1 {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestGenerateShapeCalibration(t *testing.T) {
	pop := Generate(Params{Seed: 1, ASes: 2000})
	s := pop.Summarize()

	noDSAV := float64(s.NoDSAV) / float64(s.ASes)
	if noDSAV < 0.42 || noDSAV > 0.62 {
		t.Errorf("no-DSAV AS share = %.2f, want ≈0.52 (paper: 49%% of ASes reachable, a lower bound on no-DSAV)", noDSAV)
	}
	v6 := float64(s.V6ASes) / float64(s.ASes)
	if v6 < 0.10 || v6 > 0.22 {
		t.Errorf("v6 AS share = %.2f, want ≈0.15", v6)
	}
	fwd := float64(s.Forwarders) / float64(s.LiveResolvers)
	if fwd < 0.3 || fwd > 0.55 {
		t.Errorf("forwarder share = %.2f, want ≈0.42", fwd)
	}
	dead := float64(s.DeadTargets) / float64(s.DeadTargets+s.LiveResolvers)
	if dead < 0.7 || dead > 0.95 {
		t.Errorf("dead-target share = %.2f, want ≈0.85 (most DITL sources don't respond)", dead)
	}
	zero := float64(s.ZeroPort) / float64(s.LiveResolvers)
	if zero < 0.002 || zero > 0.02 {
		t.Errorf("zero-port share of live resolvers = %.4f, want ≈0.007 (1.3%% of directs)", zero)
	}
}

func TestGeneratePrefixesAreValidAndDisjoint(t *testing.T) {
	pop := Generate(Params{Seed: 2, ASes: 300})
	reg := routing.NewRegistry()
	for _, as := range pop.ASes {
		if len(as.V4Prefixes) == 0 {
			t.Fatalf("%v has no v4 prefixes", as.ASN)
		}
		if err := reg.Add(&routing.AS{ASN: as.ASN, Prefixes: as.Prefixes()}); err != nil {
			t.Fatal(err)
		}
		for _, p := range as.Prefixes() {
			if routing.IsSpecialPurpose(p.Addr()) {
				t.Fatalf("%v announces special-purpose space %v", as.ASN, p)
			}
		}
	}
	// Every resolver and dead target must be routed to its own AS.
	for _, as := range pop.ASes {
		check := func(a netip.Addr) {
			if !a.IsValid() {
				return
			}
			origin := reg.OriginOf(a)
			if origin == nil || origin.ASN != as.ASN {
				t.Fatalf("address %v of %v routes to %v", a, as.ASN, origin)
			}
		}
		for ri := 0; ri < as.NumResolvers(); ri++ {
			r := as.Resolver(ri)
			check(r.Addr4)
			check(r.Addr6)
		}
		for _, d := range as.DeadTargets {
			check(d)
		}
	}
}

func TestGenerateAddressesUnique(t *testing.T) {
	pop := Generate(Params{Seed: 3, ASes: 200})
	seen := make(map[netip.Addr]bool)
	add := func(a netip.Addr) {
		if !a.IsValid() {
			return
		}
		if seen[a] {
			t.Fatalf("duplicate address %v", a)
		}
		seen[a] = true
	}
	for _, as := range pop.ASes {
		for ri := 0; ri < as.NumResolvers(); ri++ {
			r := as.Resolver(ri)
			add(r.Addr4)
			add(r.Addr6)
		}
		for _, d := range as.DeadTargets {
			add(d)
		}
	}
}

func TestResolverAllocatorsMatchBands(t *testing.T) {
	pop := Generate(Params{Seed: 4, ASes: 3000})
	// Sample each live direct resolver's allocator and verify its range
	// falls in the band it was generated for.
	counts := map[Band]int{}
	for _, as := range pop.ASes {
		for ri := 0; ri < as.NumResolvers(); ri++ {
			r := as.Resolver(ri)
			if r.Forward {
				continue
			}
			counts[r.Band]++
			alloc := r.Allocator()
			ports := make([]uint16, 10)
			for i := range ports {
				ports[i] = alloc.Next()
			}
			rg := stats.RangeOf(ports)
			switch r.Band {
			case BandZero:
				if rg != 0 {
					t.Fatalf("zero-band resolver %d has range %d", r.Index, rg)
				}
			case BandLow:
				if rg < 1 || rg > 200 {
					t.Fatalf("low-band resolver %d has range %d", r.Index, rg)
				}
			case BandWindows:
				// Windows pool may wrap; unadjusted range can be large,
				// but the allocator must stay within IANA space.
				for _, p := range ports {
					if p < 49152 {
						t.Fatalf("windows-band resolver %d used port %d", r.Index, p)
					}
				}
			case BandLinux:
				for _, p := range ports {
					if p < 32768 || p >= 61000 {
						t.Fatalf("linux-band resolver %d used port %d", r.Index, p)
					}
				}
			case BandFreeBSD:
				for _, p := range ports {
					if p < 49152 {
						t.Fatalf("freebsd-band resolver %d used port %d", r.Index, p)
					}
				}
			}
		}
	}
	for _, b := range []Band{BandZero, BandWindows, BandFreeBSD, BandLinux, BandFull} {
		if counts[b] == 0 {
			t.Errorf("band %s absent from a 3000-AS population", b)
		}
	}
	// Linux ≈ 30% and full ≈ 60% of directs.
	total := 0
	for _, c := range counts {
		total += c
	}
	linux := float64(counts[BandLinux]) / float64(total)
	full := float64(counts[BandFull]) / float64(total)
	if math.Abs(linux-0.30) > 0.05 {
		t.Errorf("linux band share = %.2f, want ≈0.30", linux)
	}
	if math.Abs(full-0.60) > 0.06 {
		t.Errorf("full band share = %.2f, want ≈0.60", full)
	}
}

func TestWindowsBandResolversAreMostlyOpen(t *testing.T) {
	pop := Generate(Params{Seed: 5, ASes: 4000})
	open, closed := 0, 0
	for _, as := range pop.ASes {
		for ri := 0; ri < as.NumResolvers(); ri++ {
			r := as.Resolver(ri)
			if r.Band != BandWindows || r.Forward {
				continue
			}
			if r.Scope == ScopeOpen {
				open++
			} else {
				closed++
			}
		}
	}
	if open+closed < 50 {
		t.Fatalf("too few windows-band resolvers to test: %d", open+closed)
	}
	frac := float64(open) / float64(open+closed)
	if frac < 0.75 {
		t.Errorf("windows-band open share = %.2f, want ≈0.89 (Table 4)", frac)
	}
}

func TestLinuxBandResolversAreMostlyClosed(t *testing.T) {
	pop := Generate(Params{Seed: 6, ASes: 1000})
	open, closed := 0, 0
	for _, as := range pop.ASes {
		for ri := 0; ri < as.NumResolvers(); ri++ {
			r := as.Resolver(ri)
			if r.Band != BandLinux || r.Forward {
				continue
			}
			if r.Scope == ScopeOpen {
				open++
			} else {
				closed++
			}
		}
	}
	frac := float64(open) / float64(open+closed)
	if frac > 0.15 {
		t.Errorf("linux-band open share = %.2f, want ≈0.03 (Table 4)", frac)
	}
}

func TestPassive2018Composition(t *testing.T) {
	pop := Generate(Params{Seed: 7, ASes: 5000})
	passive := Passive2018(pop, 99)
	sameZero, regressed, absent := 0, 0, 0
	for _, as := range pop.ASes {
		for ri := 0; ri < as.NumResolvers(); ri++ {
			r := as.Resolver(ri)
			if r.Band != BandZero {
				continue
			}
			addr := r.Addr4
			if !addr.IsValid() {
				addr = r.Addr6
			}
			sample, ok := passive[addr]
			switch r.History {
			case HistoryAbsent:
				absent++
				if ok {
					t.Fatalf("absent resolver %d present in 2018 data", r.Index)
				}
			case HistorySameZero:
				sameZero++
				if !ok || stats.RangeOf(sample.Ports) != 0 {
					t.Fatalf("same-zero resolver %d has 2018 range %d", r.Index, stats.RangeOf(sample.Ports))
				}
			case HistoryRegressed:
				regressed++
				if !ok || stats.RangeOf(sample.Ports) == 0 {
					t.Fatalf("regressed resolver %d shows no 2018 variance", r.Index)
				}
			}
		}
	}
	total := sameZero + regressed + absent
	if total < 30 {
		t.Fatalf("too few zero-band resolvers: %d", total)
	}
	// §5.2.2: 51% / 25% / 24%.
	if f := float64(sameZero) / float64(total); math.Abs(f-0.51) > 0.12 {
		t.Errorf("same-zero share = %.2f, want ≈0.51", f)
	}
	if f := float64(absent) / float64(total); math.Abs(f-0.24) > 0.12 {
		t.Errorf("absent share = %.2f, want ≈0.24", f)
	}
}

func TestACLScopeStrings(t *testing.T) {
	for s := ScopeOpen; s <= ScopeStrict; s++ {
		if s.String() == "?" {
			t.Fatalf("scope %d has no name", int(s))
		}
	}
}

func TestV4BlocksAvoidSpecialSpace(t *testing.T) {
	for i := 0; i < 60000; i += 97 {
		b := v4BlockFor(i)
		if routing.IsSpecialPurpose(b.Addr()) {
			t.Fatalf("block %d = %v is special-purpose", i, b)
		}
	}
}

func TestAllocatorOverrides(t *testing.T) {
	r := &ResolverSpec{Software: resolver.SoftwareBIND9Modern, FixedPortOverride: 32768, Seed: 1}
	if p := r.Allocator().Next(); p != 32768 {
		t.Fatalf("override port = %d", p)
	}
	r2 := &ResolverSpec{SmallPoolSize: 50, Seed: 2}
	seen := map[uint16]bool{}
	a := r2.Allocator()
	for i := 0; i < 2000; i++ {
		seen[a.Next()] = true
	}
	if len(seen) > 50 {
		t.Fatalf("small pool emitted %d distinct ports", len(seen))
	}
	r3 := &ResolverSpec{SeqSize: 10, Seed: 3}
	a3 := r3.Allocator()
	p0 := a3.Next()
	if a3.Next() != p0+1 {
		t.Fatal("sequential override not sequential")
	}
}
