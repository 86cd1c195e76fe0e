package ditl

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"slices"

	"repro/internal/oskernel"
	"repro/internal/resolver"
	"repro/internal/routing"
)

// Population serialization: a generated world can be exported as a
// reproducibility artifact (the synthetic analogue of publishing the
// DITL-derived target list) and re-imported bit-identically.

type resolverJSON struct {
	Index             int     `json:"index"`
	Addr4             string  `json:"addr4,omitempty"`
	Addr6             string  `json:"addr6,omitempty"`
	OS                string  `json:"os"`
	Software          int     `json:"software"`
	SmallPoolSize     int     `json:"small_pool,omitempty"`
	SeqSize           int     `json:"seq_size,omitempty"`
	FixedPortOverride uint16  `json:"fixed_port,omitempty"`
	Scope             int     `json:"scope"`
	ACLAllowLoopback  bool    `json:"acl_loopback,omitempty"`
	QnameMin          bool    `json:"qmin,omitempty"`
	QnameMinStrict    bool    `json:"qmin_strict,omitempty"`
	Forward           bool    `json:"forward,omitempty"`
	ForwardFraction   float64 `json:"forward_fraction,omitempty"`
	Upstream          int     `json:"upstream,omitempty"`
	Scrub             bool    `json:"scrub,omitempty"`
	Seed              int64   `json:"seed"`
	Band              string  `json:"band"`
	History           int     `json:"history"`
}

type asJSON struct {
	ASN          uint32         `json:"asn"`
	V4Prefixes   []string       `json:"v4_prefixes"`
	V6Prefixes   []string       `json:"v6_prefixes,omitempty"`
	DSAV         bool           `json:"dsav"`
	OSAV         bool           `json:"osav"`
	FilterBogons bool           `json:"filter_bogons"`
	IDS          bool           `json:"ids,omitempty"`
	Middlebox    bool           `json:"middlebox,omitempty"`
	Countries    []string       `json:"countries"`
	Resolvers    []resolverJSON `json:"resolvers"`
	DeadTargets  []string       `json:"dead_targets"`
}

type populationJSON struct {
	Params Params   `json:"params"`
	ASes   []asJSON `json:"ases"`
}

// WriteJSON serializes the population.
func (p *Population) WriteJSON(w io.Writer) error {
	out := populationJSON{Params: p.Params}
	for _, as := range p.ASes {
		aj := asJSON{
			ASN: uint32(as.ASN), DSAV: as.DSAV, OSAV: as.OSAV,
			FilterBogons: as.FilterBogons, IDS: as.IDS, Middlebox: as.Middlebox,
			Countries: as.Countries,
		}
		for _, pr := range as.V4Prefixes {
			aj.V4Prefixes = append(aj.V4Prefixes, pr.String())
		}
		for _, pr := range as.V6Prefixes {
			aj.V6Prefixes = append(aj.V6Prefixes, pr.String())
		}
		for _, d := range as.DeadTargets {
			aj.DeadTargets = append(aj.DeadTargets, d.String())
		}
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			rj := resolverJSON{
				Index: r.Index, OS: r.OS.Name, Software: int(r.Software),
				SmallPoolSize: r.SmallPoolSize, SeqSize: r.SeqSize,
				FixedPortOverride: r.FixedPortOverride,
				Scope:             int(r.Scope), ACLAllowLoopback: r.ACLAllowLoopback,
				QnameMin: r.QnameMin, QnameMinStrict: r.QnameMinStrict,
				Forward: r.Forward, ForwardFraction: r.ForwardFraction,
				Upstream: int(r.Upstream), Scrub: r.Scrub, Seed: r.Seed,
				Band: string(r.Band), History: int(r.History),
			}
			if r.HasV4() {
				rj.Addr4 = r.Addr4.String()
			}
			if r.HasV6() {
				rj.Addr6 = r.Addr6.String()
			}
			aj.Resolvers = append(aj.Resolvers, rj)
		}
		out.ASes = append(out.ASes, aj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadJSON deserializes a population written by WriteJSON.
func ReadJSON(r io.Reader) (*Population, error) {
	var in populationJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("ditl: decode population: %w", err)
	}
	pop := &Population{Params: in.Params}
	slab := newResolverSlab()
	for _, aj := range in.ASes {
		as := &ASSpec{
			ASN: routing.ASN(aj.ASN), DSAV: aj.DSAV, OSAV: aj.OSAV,
			FilterBogons: aj.FilterBogons, IDS: aj.IDS, Middlebox: aj.Middlebox,
			Countries: aj.Countries,
			slab:      slab, lo: slab.len(), hi: slab.len(),
		}
		for _, s := range aj.V4Prefixes {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				return nil, fmt.Errorf("ditl: AS%d prefix %q: %w", aj.ASN, s, err)
			}
			as.V4Prefixes = append(as.V4Prefixes, p)
		}
		for _, s := range aj.V6Prefixes {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				return nil, fmt.Errorf("ditl: AS%d prefix %q: %w", aj.ASN, s, err)
			}
			as.V6Prefixes = append(as.V6Prefixes, p)
		}
		for _, s := range aj.DeadTargets {
			a, err := netip.ParseAddr(s)
			if err != nil {
				return nil, fmt.Errorf("ditl: AS%d dead target %q: %w", aj.ASN, s, err)
			}
			as.DeadTargets = append(as.DeadTargets, a)
		}
		for _, rj := range aj.Resolvers {
			osProf, err := oskernel.ByName(rj.OS)
			if err != nil {
				return nil, fmt.Errorf("ditl: resolver %d: %w", rj.Index, err)
			}
			rs := ResolverSpec{
				Index: rj.Index, ASN: as.ASN, OS: osProf,
				Software:      resolver.Software(rj.Software),
				SmallPoolSize: rj.SmallPoolSize, SeqSize: rj.SeqSize,
				FixedPortOverride: rj.FixedPortOverride,
				Scope:             ACLScope(rj.Scope), ACLAllowLoopback: rj.ACLAllowLoopback,
				QnameMin: rj.QnameMin, QnameMinStrict: rj.QnameMinStrict,
				Forward: rj.Forward, ForwardFraction: rj.ForwardFraction,
				Upstream: UpstreamKind(rj.Upstream), Scrub: rj.Scrub, Seed: rj.Seed,
				Band: Band(rj.Band), History: History2018(rj.History),
			}
			if rj.Addr4 != "" {
				a, err := netip.ParseAddr(rj.Addr4)
				if err != nil {
					return nil, fmt.Errorf("ditl: resolver %d addr4: %w", rj.Index, err)
				}
				rs.Addr4 = a
			}
			if rj.Addr6 != "" {
				a, err := netip.ParseAddr(rj.Addr6)
				if err != nil {
					return nil, fmt.Errorf("ditl: resolver %d addr6: %w", rj.Index, err)
				}
				rs.Addr6 = a
			}
			as.appendResolver(&rs)
		}
		pop.ASes = append(pop.ASes, as)
	}
	return pop, nil
}

// Validate checks a population's internal consistency — essential for
// worlds imported from JSON: every address and prefix must be of its
// field's family, every address must fall inside its AS's announced
// prefixes, no address may repeat, resolver indices must be unique,
// enumerated fields must hold declared values, and allocator overrides
// must be coherent.
func (p *Population) Validate() error {
	seenAddr := make(map[netip.Addr]bool)
	seenASN := make(map[routing.ASN]bool)
	seenIdx := make(map[int]bool)
	for _, as := range p.ASes {
		if seenASN[as.ASN] {
			return fmt.Errorf("ditl: duplicate %v", as.ASN)
		}
		seenASN[as.ASN] = true
		if len(as.V4Prefixes) == 0 {
			return fmt.Errorf("ditl: %v announces no IPv4 space", as.ASN)
		}
		for _, pr := range as.V4Prefixes {
			if !pr.Addr().Is4() {
				return fmt.Errorf("ditl: %v: v4_prefixes entry %v is not IPv4", as.ASN, pr)
			}
		}
		for _, pr := range as.V6Prefixes {
			if !pr.Addr().Is6() {
				return fmt.Errorf("ditl: %v: v6_prefixes entry %v is not IPv6", as.ASN, pr)
			}
		}
		contains := func(a netip.Addr) bool {
			for _, pr := range as.Prefixes() {
				if pr.Contains(a) {
					return true
				}
			}
			return false
		}
		checkAddr := func(a netip.Addr, what string) error {
			if !a.IsValid() {
				return nil
			}
			if seenAddr[a] {
				return fmt.Errorf("ditl: %v: duplicate address %v (%s)", as.ASN, a, what)
			}
			seenAddr[a] = true
			if !contains(a) {
				return fmt.Errorf("ditl: %v: %s %v outside announced prefixes", as.ASN, what, a)
			}
			if routing.IsSpecialPurpose(a) {
				return fmt.Errorf("ditl: %v: %s %v is special-purpose", as.ASN, what, a)
			}
			return nil
		}
		for k := 0; k < as.NumResolvers(); k++ {
			rs := as.Resolver(k)
			if seenIdx[rs.Index] {
				return fmt.Errorf("ditl: duplicate resolver index %d", rs.Index)
			}
			seenIdx[rs.Index] = true
			if rs.ASN != as.ASN {
				return fmt.Errorf("ditl: resolver %d carries %v inside %v", rs.Index, rs.ASN, as.ASN)
			}
			if !rs.HasV4() && !rs.HasV6() {
				return fmt.Errorf("ditl: resolver %d has no address", rs.Index)
			}
			if rs.OS == nil {
				return fmt.Errorf("ditl: resolver %d has no OS profile", rs.Index)
			}
			if rs.SmallPoolSize > 0 && rs.SeqSize > 0 {
				return fmt.Errorf("ditl: resolver %d has conflicting allocator overrides", rs.Index)
			}
			if err := checkFields(&rs); err != nil {
				return err
			}
			if err := checkAddr(rs.Addr4, "resolver v4"); err != nil {
				return err
			}
			if err := checkAddr(rs.Addr6, "resolver v6"); err != nil {
				return err
			}
		}
		for _, d := range as.DeadTargets {
			if err := checkAddr(d, "dead target"); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkFields rejects resolver fields holding values outside their
// declared range — JSON carries the enumerations as bare numbers —
// naming the JSON field.
func checkFields(rs *ResolverSpec) error {
	bad := func(field string, v any, want string) error {
		return fmt.Errorf("ditl: resolver %d: %s = %v; want %s", rs.Index, field, v, want)
	}
	switch {
	case rs.HasV4() && !rs.Addr4.Is4():
		return bad("addr4", rs.Addr4, "an IPv4 address")
	case rs.HasV6() && !rs.Addr6.Is6():
		return bad("addr6", rs.Addr6, "an IPv6 address")
	case rs.Scope < ScopeOpen || rs.Scope > ScopeStrict:
		return bad("scope", int(rs.Scope), fmt.Sprintf("%d..%d", ScopeOpen, ScopeStrict))
	case rs.Upstream < UpstreamPublicDNS || rs.Upstream > UpstreamThirdParty:
		return bad("upstream", int(rs.Upstream), fmt.Sprintf("%d..%d", UpstreamPublicDNS, UpstreamThirdParty))
	case rs.History < HistorySameZero || rs.History > HistoryAbsent:
		return bad("history", int(rs.History), fmt.Sprintf("%d..%d", HistorySameZero, HistoryAbsent))
	case !slices.Contains(resolver.AllSoftware, rs.Software):
		return bad("software", int(rs.Software), "a modeled implementation (resolver.AllSoftware)")
	case !(rs.ForwardFraction >= 0 && rs.ForwardFraction <= 1):
		return bad("forward_fraction", rs.ForwardFraction, "a fraction in [0, 1]")
	case rs.SmallPoolSize < 0 || rs.SmallPoolSize > maxSmallPool:
		return bad("small_pool", rs.SmallPoolSize, fmt.Sprintf("0..%d", maxSmallPool))
	}
	return nil
}
