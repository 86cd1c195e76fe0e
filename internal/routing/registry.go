package routing

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
)

// AS is an autonomous system: an origin ASN with its announced prefixes
// and the border-filtering posture the experiment measures.
type AS struct {
	ASN      ASN
	Prefixes []netip.Prefix // announced (v4 and v6 mixed)

	// DSAV reports whether the AS filters inbound packets whose source
	// address belongs to one of its own announced prefixes
	// (destination-side source address validation).
	DSAV bool
	// OSAV reports whether the AS filters outbound packets whose source
	// address does not belong to one of its announced prefixes (BCP 38).
	OSAV bool
	// FilterBogons reports whether the AS border drops inbound packets
	// with special-purpose (private, loopback, ...) source addresses.
	FilterBogons bool

	// Countries lists the ISO country codes the AS's address space maps
	// to (an AS may span several, as in the paper's Tables 1-2).
	Countries []string

	// Infra marks experiment infrastructure (roots/auth, the scanner's
	// own network, shared public-DNS and third-party-upstream space)
	// rather than a surveyed population AS. The registry is the single
	// source of truth for this role: chaos eligibility and campaign
	// accounting consult it instead of keeping their own ASN lists.
	Infra bool
	// PublicService marks an AS whose every host is a public DNS
	// resolver (the shared public-DNS space); analysis middlebox
	// accounting uses it to explain hits relayed via public resolvers.
	PublicService bool
}

// V4Prefixes returns the announced IPv4 prefixes, which may share
// Prefixes' array: callers read them and never write them.
func (a *AS) V4Prefixes() []netip.Prefix { return a.family(true) }

// V6Prefixes returns the announced IPv6 prefixes, which may share
// Prefixes' array: callers read them and never write them.
func (a *AS) V6Prefixes() []netip.Prefix { return a.family(false) }

// family returns the prefixes of one address family. When Prefixes
// lists every IPv4 prefix before every IPv6 one, as the world builder
// announces them, each family is a clipped subslice, so an append to it
// copies instead of overwriting the other family; any other order gets
// a new slice.
func (a *AS) family(v4 bool) []netip.Prefix {
	ps := a.Prefixes
	split := 0
	for split < len(ps) && ps[split].Addr().Is4() {
		split++
	}
	if !slices.ContainsFunc(ps[split:], func(p netip.Prefix) bool { return p.Addr().Is4() }) {
		if v4 {
			return slices.Clip(ps[:split])
		}
		return slices.Clip(ps[split:])
	}
	var out []netip.Prefix
	for _, p := range ps {
		if p.Addr().Is4() == v4 {
			out = append(out, p)
		}
	}
	return out
}

// Originates reports whether addr falls within one of the AS's announced
// prefixes.
func (a *AS) Originates(addr netip.Addr) bool {
	for _, p := range a.Prefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// Registry is the simulated global routing table: the set of ASes, their
// announced prefixes, and a longest-prefix-match index. Every shard
// worker reads the same Registry concurrently, so it is frozen after
// construction: once a world is built, no code outside a construction
// context may call Add or otherwise write through it — the frozenshare
// analyzer proves that statically, in every importing package.
//
//doors:frozen
type Registry struct {
	byASN map[ASN]*AS
	trie  Trie
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byASN: make(map[ASN]*AS)}
}

// Add registers an AS and indexes its prefixes. Adding the same ASN twice
// is a programming error.
func (r *Registry) Add(as *AS) error {
	if _, dup := r.byASN[as.ASN]; dup {
		return fmt.Errorf("routing: duplicate %v", as.ASN)
	}
	r.byASN[as.ASN] = as
	for _, p := range as.Prefixes {
		r.trie.Insert(p, as.ASN)
	}
	return nil
}

// AS returns the AS for asn, or nil.
func (r *Registry) AS(asn ASN) *AS { return r.byASN[asn] }

// InfraAS reports whether asn is registered experiment infrastructure
// (see AS.Infra). Unregistered ASNs are not infrastructure.
func (r *Registry) InfraAS(asn ASN) bool {
	as := r.byASN[asn]
	return as != nil && as.Infra
}

// Count reports the number of registered ASes.
func (r *Registry) Count() int { return len(r.byASN) }

// ASNs returns all registered ASNs in ascending order (deterministic
// iteration for the simulator).
func (r *Registry) ASNs() []ASN {
	out := make([]ASN, 0, len(r.byASN))
	for a := range r.byASN {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OriginOf returns the AS originating addr's longest-matching announced
// prefix, or nil if the address is unrouted.
//
//doors:hotpath
func (r *Registry) OriginOf(addr netip.Addr) *AS {
	asn, ok := r.trie.Lookup(addr)
	if !ok {
		return nil
	}
	return r.byASN[asn]
}
