// Package authserver implements the authoritative DNS servers of the
// experiment: the root and TLD servers the simulated resolvers recurse
// through, and the dns-lab.org servers under the experimenter's control
// whose received queries are the experiment's only signal (§3).
//
// Zones support the behaviours the paper's setup needed:
//
//   - default NXDOMAIN for unknown names (§3.3), with the RFC 8020 side
//     effect on QNAME-minimizing resolvers (§3.6.4);
//   - optional wildcard synthesis (the fix proposed in §3.6.4);
//   - an always-truncate mode that forces resolvers onto TCP so their
//     SYNs can be fingerprinted (§3.5, §5.3.1);
//   - delegations with IPv4-only or IPv6-only glue (the transport
//     follow-up probes of §3.5).
package authserver

import (
	"net/netip"

	"repro/internal/dnswire"
)

// Delegation is a child-zone cut: NS names plus glue addresses.
type Delegation struct {
	// Apex is the child zone apex (e.g. "org" in the root zone).
	Apex dnswire.Name
	// NS lists the child zone's nameserver names.
	NS []dnswire.Name
	// Glue maps nameserver names to their addresses. Family-restricted
	// glue (only A or only AAAA) restricts the transports resolvers can
	// use to reach the child zone.
	Glue map[dnswire.Name][]netip.Addr
}

// rrKey indexes records within a zone.
type rrKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// Zone is one served zone.
type Zone struct {
	// Origin is the zone apex.
	Origin dnswire.Name
	// SOA is returned in the authority section of negative answers and
	// carries the experimenter contact information (§3.7: RNAME with an
	// opt-out address, MNAME pointing at the project description).
	SOA dnswire.SOAData
	// NS lists the zone's own nameserver names.
	NS []dnswire.Name
	// Wildcard, when set, synthesizes a positive answer (a TXT record)
	// for any name under the origin instead of NXDOMAIN.
	Wildcard bool
	// AlwaysTruncate, when set, answers every UDP query with TC=1 and no
	// answers, forcing the resolver to retry over TCP.
	AlwaysTruncate bool
	// TTL is applied to synthesized and negative answers.
	TTL uint32
	// AllowUpdateFrom lists client prefixes permitted to issue RFC 2136
	// dynamic updates — the "internal only" configuration that DNS zone
	// poisoning ([29]) exploits through spoofed-internal sources when
	// the border lacks DSAV. Empty means updates are refused.
	AllowUpdateFrom []netip.Prefix

	records     map[rrKey][]dnswire.RR
	delegations map[dnswire.Name]*Delegation
}

// NewZone returns an empty zone with the given apex and SOA.
func NewZone(origin dnswire.Name, soa dnswire.SOAData) *Zone {
	return &Zone{
		Origin: origin, SOA: soa, TTL: 300,
		records:     make(map[rrKey][]dnswire.RR),
		delegations: make(map[dnswire.Name]*Delegation),
	}
}

// AddRecord inserts a static record.
func (z *Zone) AddRecord(rr dnswire.RR) {
	k := rrKey{name: rr.Name.Canonical(), typ: rr.Type}
	z.records[k] = append(z.records[k], rr)
}

// AddAddr inserts an A or AAAA record for name.
func (z *Zone) AddAddr(name dnswire.Name, addr netip.Addr, ttl uint32) {
	typ := dnswire.TypeAAAA
	if addr.Is4() {
		typ = dnswire.TypeA
	}
	z.AddRecord(dnswire.RR{Name: name, Type: typ, Class: dnswire.ClassIN, TTL: ttl, Addr: addr})
}

// Delegate adds a child-zone cut.
func (z *Zone) Delegate(d *Delegation) { z.delegations[d.Apex.Canonical()] = d }

// delegationFor finds the delegation covering name, if any.
func (z *Zone) delegationFor(name dnswire.Name) *Delegation {
	n := name.Canonical()
	for n != z.Origin.Canonical() && n.CountLabels() > z.Origin.CountLabels() {
		if d, ok := z.delegations[n]; ok {
			return d
		}
		n = n.Parent()
	}
	return nil
}

// soaRR materializes the zone's SOA as an RR.
func (z *Zone) soaRR() dnswire.RR {
	return dnswire.RR{
		Name: z.Origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: z.TTL,
		SOA: &z.SOA,
	}
}

// Respond produces the authoritative response for q. overUDP selects the
// AlwaysTruncate behaviour.
func (z *Zone) Respond(q *dnswire.Message, overUDP bool) *dnswire.Message {
	r := new(dnswire.Message)
	z.respond(r, q, overUDP)
	return r
}

// respond is Respond building the response in r's own storage
// (dnswire.Message.ReplyInto): records are copied in, so r never
// aliases the zone's RRsets.
func (z *Zone) respond(r, q *dnswire.Message, overUDP bool) {
	q.ReplyInto(r)
	r.AA = true
	question := q.Q()
	name := question.Name

	if !name.IsSubdomainOf(z.Origin) {
		r.RCode = dnswire.RCodeRefused
		r.AA = false
		return
	}

	if z.AlwaysTruncate && overUDP {
		r.TC = true
		return
	}

	// Delegation below a zone cut: referral.
	if d := z.delegationFor(name); d != nil {
		for _, ns := range d.NS {
			r.Authority = append(r.Authority, dnswire.RR{
				Name: d.Apex, Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: z.TTL, Target: ns,
			})
			for _, a := range d.Glue[ns.Canonical()] {
				typ := dnswire.TypeAAAA
				if a.Is4() {
					typ = dnswire.TypeA
				}
				r.Additional = append(r.Additional, dnswire.RR{
					Name: ns, Type: typ, Class: dnswire.ClassIN, TTL: z.TTL, Addr: a,
				})
			}
		}
		r.AA = false
		return
	}

	// Exact records.
	if rrs, ok := z.records[rrKey{name: name.Canonical(), typ: question.Type}]; ok {
		r.Answer = append(r.Answer, rrs...)
		return
	}
	// Name exists with other types: NODATA.
	if z.nameExists(name) {
		r.Authority = append(r.Authority, z.soaRR())
		return
	}

	if z.Wildcard && name.CountLabels() > z.Origin.CountLabels() {
		// Synthesize a positive answer so QNAME-minimizing resolvers keep
		// descending (§3.6.4's proposed fix).
		switch question.Type {
		case dnswire.TypeTXT:
			r.Answer = append(r.Answer, dnswire.RR{
				Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: z.TTL,
				Txt: []string{"dsav-experiment"},
			})
		case dnswire.TypeA:
			r.Answer = append(r.Answer, dnswire.RR{
				Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: z.TTL,
				Addr: netip.MustParseAddr("192.0.2.200"),
			})
		default:
			// NOERROR/NODATA: the name "exists".
			r.Authority = append(r.Authority, z.soaRR())
		}
		return
	}

	// Default: NXDOMAIN (§3.3).
	r.RCode = dnswire.RCodeNXDomain
	r.Authority = append(r.Authority, z.soaRR())
}

// allowsUpdateFrom reports whether src may send dynamic updates.
func (z *Zone) allowsUpdateFrom(src netip.Addr) bool {
	for _, p := range z.AllowUpdateFrom {
		if p.Contains(src) {
			return true
		}
	}
	return false
}

// ApplyUpdate processes an RFC 2136 UPDATE from src and returns the
// response. Additions append to RRsets; class-ANY records delete whole
// RRsets.
func (z *Zone) ApplyUpdate(src netip.Addr, msg *dnswire.Message) *dnswire.Message {
	r := msg.Reply()
	zone, ok := msg.UpdateZone()
	if !ok || !zone.Equal(z.Origin) {
		r.RCode = dnswire.RCodeNotAuth
		return r
	}
	if !z.allowsUpdateFrom(src) {
		r.RCode = dnswire.RCodeRefused
		return r
	}
	adds, deletes := msg.UpdateOps()
	for _, rr := range deletes {
		if !rr.Name.IsSubdomainOf(z.Origin) {
			r.RCode = dnswire.RCodeNotAuth
			return r
		}
		delete(z.records, rrKey{name: rr.Name.Canonical(), typ: rr.Type})
	}
	for _, rr := range adds {
		if !rr.Name.IsSubdomainOf(z.Origin) {
			r.RCode = dnswire.RCodeNotAuth
			return r
		}
		z.AddRecord(rr)
	}
	return r
}

// nameExists reports whether any record exists at name (any type), or a
// delegation apex equals it, or it is the zone origin.
func (z *Zone) nameExists(name dnswire.Name) bool {
	n := name.Canonical()
	if n == z.Origin.Canonical() {
		return true
	}
	for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeTXT, dnswire.TypeCNAME, dnswire.TypePTR, dnswire.TypeSOA} {
		if _, ok := z.records[rrKey{name: n, typ: t}]; ok {
			return true
		}
	}
	_, ok := z.delegations[n]
	return ok
}
