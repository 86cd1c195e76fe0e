package contact

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ditl"
	"repro/internal/world"
)

func TestRNameToEmail(t *testing.T) {
	if got := rnameToEmail("hostmaster.as1000.example.net"); got != "hostmaster@as1000.example.net" {
		t.Fatalf("email = %q", got)
	}
}

func TestLookupThroughSimulatedWorld(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 77, ASes: 40})
	w, err := world.Build(pop, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Host: w.Scanner, From: w.ScannerAddr4, Resolver: w.PublicDNS[0]}

	var withPTR, withoutPTR *ditl.ResolverSpec
	for _, as := range pop.ASes {
		for k := 0; k < as.NumResolvers(); k++ {
			rs := as.Resolver(k)
			if !rs.HasV4() {
				continue
			}
			if world.PublishesPTR(&rs) && withPTR == nil {
				c := rs
				withPTR = &c
			}
			if !world.PublishesPTR(&rs) && withoutPTR == nil {
				c := rs
				withoutPTR = &c
			}
		}
	}
	if withPTR == nil || withoutPTR == nil {
		t.Fatal("population lacks both PTR classes")
	}

	info, err := Lookup(client, withPTR.Addr4)
	if err != nil {
		t.Fatalf("Lookup(%v): %v", withPTR.Addr4, err)
	}
	wantDomain := fmt.Sprintf("as%d.example.net", withPTR.ASN)
	if string(info.Domain) != wantDomain {
		t.Fatalf("domain = %q, want %q", info.Domain, wantDomain)
	}
	if info.Email != "hostmaster@"+wantDomain {
		t.Fatalf("email = %q", info.Email)
	}
	if !strings.HasPrefix(string(info.PTR), fmt.Sprintf("r%d.", withPTR.Index)) {
		t.Fatalf("PTR = %q", info.PTR)
	}

	// Resolvers without published PTR records are uncontactable — the
	// reason the paper could reach only a fraction of operators.
	if _, err := Lookup(client, withoutPTR.Addr4); err == nil {
		t.Fatal("lookup for PTR-less resolver succeeded")
	}
}

// TestLookupThroughShardWorld resolves PTR and SOA records through a
// shard world built from a marked view: the world adds its own ASes'
// reverse-DNS records in the sweep that builds them, and no other
// shard's.
func TestLookupThroughShardWorld(t *testing.T) {
	view := ditl.NewView(ditl.Params{Seed: 78, ASes: 80})
	parts := ditl.PartitionIndices(view.NumASes(), 4)
	marked := ditl.Marked(view, []int{parts[1][0], parts[2][0], parts[3][0]})
	reg, err := world.BuildRegistry(view, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.BuildWith(marked, reg, world.Options{}, parts[2])
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Host: w.Scanner, From: w.ScannerAddr4, Resolver: w.PublicDNS[0]}

	// The first PTR-publishing IPv4 and IPv6 resolvers in the shard and
	// one in another shard.
	published := func(indices []int, v6 bool) (ditl.ResolverSpec, bool) {
		var found ditl.ResolverSpec
		ok := false
		view.EachAS(indices, func(_ int, as *ditl.ASSpec) {
			for k := 0; k < as.NumResolvers() && !ok; k++ {
				rs := as.Resolver(k)
				if world.PublishesPTR(&rs) && (v6 && rs.HasV6() || !v6 && rs.HasV4()) {
					found, ok = rs, true
				}
			}
		})
		return found, ok
	}
	for _, v6 := range []bool{false, true} {
		rs, ok := published(parts[2], v6)
		if !ok {
			t.Fatalf("shard 2 has no PTR-publishing resolver (v6 %v)", v6)
		}
		addr := rs.Addr4
		if v6 {
			addr = rs.Addr6
		}
		info, err := Lookup(client, addr)
		if err != nil {
			t.Fatalf("Lookup(%v): %v", addr, err)
		}
		domain := fmt.Sprintf("as%d.example.net", rs.ASN)
		if string(info.Domain) != domain || info.Email != "hostmaster@"+domain {
			t.Fatalf("Lookup(%v): domain %q, email %q; want %q", addr, info.Domain, info.Email, domain)
		}
		if !strings.HasPrefix(string(info.PTR), fmt.Sprintf("r%d.", rs.Index)) {
			t.Fatalf("Lookup(%v): PTR = %q", addr, info.PTR)
		}
	}
	other, ok := published(parts[0], false)
	if !ok {
		t.Fatal("shard 0 has no PTR-publishing resolver")
	}
	if _, err := Lookup(client, other.Addr4); err == nil {
		t.Fatalf("Lookup(%v) of another shard's resolver succeeded", other.Addr4)
	}
}

func TestLookupV6(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 78, ASes: 80})
	w, err := world.Build(pop, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Host: w.Scanner, From: w.ScannerAddr4, Resolver: w.PublicDNS[0]}
	for _, as := range pop.ASes {
		for k := 0; k < as.NumResolvers(); k++ {
			rs := as.Resolver(k)
			if rs.HasV6() && world.PublishesPTR(&rs) {
				info, err := Lookup(client, rs.Addr6)
				if err != nil {
					t.Fatalf("v6 Lookup(%v): %v", rs.Addr6, err)
				}
				if info.Email == "" {
					t.Fatal("empty email")
				}
				return
			}
		}
	}
	t.Skip("no v6 resolver with PTR in this seed")
}
