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
