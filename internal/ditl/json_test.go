package ditl

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

func netipMustParse(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestJSONRoundTrip(t *testing.T) {
	pop := Generate(Params{Seed: 31, ASes: 50})
	var buf bytes.Buffer
	if err := pop.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summarize() != pop.Summarize() {
		t.Fatalf("summaries differ: %+v vs %+v", got.Summarize(), pop.Summarize())
	}
	if len(got.ASes) != len(pop.ASes) {
		t.Fatalf("AS count %d vs %d", len(got.ASes), len(pop.ASes))
	}
	for i, as := range pop.ASes {
		if g, w := snapshot(got.ASes[i]), snapshot(as); !reflect.DeepEqual(g, w) {
			t.Fatalf("AS %d differs:\nread:  %+v\nwrote: %+v", i, g, w)
		}
	}
}

func TestJSONRoundTripAllocatorsIdentical(t *testing.T) {
	// The reloaded specs must yield byte-identical port allocators (the
	// seeds travel with the spec).
	pop := Generate(Params{Seed: 32, ASes: 30})
	var buf bytes.Buffer
	if err := pop.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop.ASes {
		for j := 0; j < pop.ASes[i].NumResolvers(); j++ {
			r1, r2 := pop.ASes[i].Resolver(j), got.ASes[i].Resolver(j)
			a1, a2 := r1.Allocator(), r2.Allocator()
			for k := 0; k < 20; k++ {
				if a1.Next() != a2.Next() {
					t.Fatalf("allocator %d/%d diverged at draw %d", i, j, k)
				}
			}
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",
		"{",
		`{"params":{},"ases":[{"asn":1,"v4_prefixes":["not-a-prefix"]}]}`,
		`{"params":{},"ases":[{"asn":1,"v4_prefixes":[],"resolvers":[{"os":"NoSuchOS"}]}]}`,
		`{"params":{},"ases":[{"asn":1,"v4_prefixes":[],"dead_targets":["999.1.1.1"]}]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(s)); err == nil {
			t.Errorf("garbage accepted: %q", s)
		}
	}
}

func TestValidateAcceptsGenerated(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pop := Generate(Params{Seed: seed, ASes: 120})
		if err := pop.Validate(); err != nil {
			t.Fatalf("seed %d: generated population invalid: %v", seed, err)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Population { return Generate(Params{Seed: 40, ASes: 20}) }

	pop := fresh()
	pop.ASes[1].ASN = pop.ASes[0].ASN
	if err := pop.Validate(); err == nil {
		t.Error("duplicate ASN accepted")
	}

	corrupt := func(pop *Population, fn func(r *ResolverSpec)) { fn(&pop.ASes[0].resolvers[0]) }

	pop = fresh()
	corrupt(pop, func(r *ResolverSpec) { r.Addr4 = pop.ASes[1].Resolver(0).Addr4 })
	if err := pop.Validate(); err == nil {
		t.Error("duplicate address accepted")
	}

	pop = fresh()
	corrupt(pop, func(r *ResolverSpec) { r.Addr4 = netipMustParse("9.9.9.9") })
	if err := pop.Validate(); err == nil {
		t.Error("out-of-prefix address accepted")
	}

	pop = fresh()
	corrupt(pop, func(r *ResolverSpec) { r.OS = nil })
	if err := pop.Validate(); err == nil {
		t.Error("missing OS accepted")
	}

	pop = fresh()
	corrupt(pop, func(r *ResolverSpec) { r.SmallPoolSize = 10; r.SeqSize = 10 })
	if err := pop.Validate(); err == nil {
		t.Error("conflicting allocator overrides accepted")
	}

	// Values JSON can carry but no generator produces: each must fail
	// with an error naming its JSON field.
	v6Resolver := func(pop *Population) (*ASSpec, int) {
		for _, as := range pop.ASes {
			for k := 0; k < as.NumResolvers(); k++ {
				if r := as.Resolver(k); r.HasV6() {
					return as, k
				}
			}
		}
		t.Fatal("no v6 resolver in population")
		return nil, 0
	}
	for _, tc := range []struct {
		field string
		fn    func(pop *Population)
	}{
		{"v4_prefixes", func(pop *Population) {
			pop.ASes[0].V4Prefixes = append(pop.ASes[0].V4Prefixes, netip.MustParsePrefix("2a00:ffff::/32"))
		}},
		{"v6_prefixes", func(pop *Population) {
			pop.ASes[0].V6Prefixes = append(pop.ASes[0].V6Prefixes, netip.MustParsePrefix("9.9.0.0/16"))
		}},
		{"addr4", func(pop *Population) {
			as, k := v6Resolver(pop)
			r := &as.resolvers[k]
			r.Addr4, r.Addr6 = r.Addr6, netip.Addr{}
		}},
		{"addr6", func(pop *Population) {
			corrupt(pop, func(r *ResolverSpec) { r.Addr4, r.Addr6 = netip.Addr{}, r.Addr4 })
		}},
		{"scope", func(pop *Population) { corrupt(pop, func(r *ResolverSpec) { r.Scope = 42 }) }},
		{"upstream", func(pop *Population) { corrupt(pop, func(r *ResolverSpec) { r.Upstream = 2 }) }},
		{"history", func(pop *Population) { corrupt(pop, func(r *ResolverSpec) { r.History = -1 }) }},
		{"software", func(pop *Population) { corrupt(pop, func(r *ResolverSpec) { r.Software = 999 }) }},
		{"forward_fraction", func(pop *Population) { corrupt(pop, func(r *ResolverSpec) { r.ForwardFraction = 7 }) }},
		{"small_pool", func(pop *Population) {
			corrupt(pop, func(r *ResolverSpec) { r.SmallPoolSize, r.SeqSize = 65535, 0 })
		}},
	} {
		pop := fresh()
		tc.fn(pop)
		if err := pop.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("bad %s: Validate() = %v; want an error naming the field", tc.field, err)
		}
	}

	// The largest pool that cannot wrap stays legal.
	pop = fresh()
	corrupt(pop, func(r *ResolverSpec) { r.SmallPoolSize, r.SeqSize = maxSmallPool, 0 })
	if err := pop.Validate(); err != nil {
		t.Errorf("small_pool = %d rejected: %v", maxSmallPool, err)
	}

	// Imported through ReadJSON, a pool that wraps past port 65535 once
	// reached the allocator and panicked inside a survey's shard worker.
	in := `{"params":{},"ases":[{"asn":64500,"v4_prefixes":["11.0.0.0/24"],"dsav":false,
		"osav":false,"filter_bogons":true,"countries":["US"],"dead_targets":[],
		"resolvers":[{"index":0,"addr4":"11.0.0.1","os":"Ubuntu 18.04","software":12,
		"small_pool":65535,"scope":0,"seed":1,"band":"midlow","history":0}]}]}`
	imported, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := imported.Validate(); err == nil || !strings.Contains(err.Error(), "small_pool") {
		t.Errorf("imported small_pool 65535: Validate() = %v; want an error naming small_pool", err)
	}
}
