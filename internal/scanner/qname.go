// Package scanner implements the measurement client of §3: spoofed-
// source DNS probing of millions of candidate resolvers, real-time
// monitoring of the experimenter's authoritative logs, follow-up
// queries, and the query-name encoding that correlates the two sides.
package scanner

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/dnswire"
	"repro/internal/routing"
)

// Query names follow the paper's template (§3.3):
//
//	ts.src.dst.asn.kw.dns-lab.org
//
// where ts is the send timestamp (virtual nanoseconds, guaranteeing
// cache-busting uniqueness), src is the spoofed source, dst the target,
// asn the target's AS number, and kw the experiment keyword. Follow-up
// probes use the same five labels under the v4/v6/tc subzones.

// AppendAddrLabel appends an address's DNS label ("v4-198-51-100-7",
// "v6-2001-db8--53") to dst: a family tag, then the address's text form
// with every '.' and ':' rewritten to '-'. DecodeAddr parses every such
// label. A 4-in-6 address decodes to a different IPv6 address, because
// the dots of its embedded IPv4 address become '-' too.
func AppendAddrLabel(dst []byte, a netip.Addr) []byte {
	if a.Is4() {
		dst = append(dst, "v4-"...)
	} else {
		dst = append(dst, "v6-"...)
	}
	start := len(dst)
	dst = a.AppendTo(dst)
	for i := start; i < len(dst); i++ {
		if dst[i] == '.' || dst[i] == ':' {
			dst[i] = '-'
		}
	}
	return dst
}

// EncodeAddr renders an address as a DNS label (see AppendAddrLabel).
func EncodeAddr(a netip.Addr) string {
	var buf [64]byte
	return string(AppendAddrLabel(buf[:0], a))
}

// DecodeAddr parses a label produced by EncodeAddr.
func DecodeAddr(label string) (netip.Addr, error) {
	switch {
	case strings.HasPrefix(label, "v4-"):
		return netip.ParseAddr(strings.ReplaceAll(label[3:], "-", "."))
	case strings.HasPrefix(label, "v6-"):
		return netip.ParseAddr(strings.ReplaceAll(label[3:], "-", ":"))
	default:
		return netip.Addr{}, fmt.Errorf("scanner: bad address label %q", label)
	}
}

// ProbeKind distinguishes the probe that induced an observed query.
type ProbeKind int

// Probe kinds (§3.5).
const (
	ProbeMain ProbeKind = iota // initial reachability probe
	ProbeV4                    // IPv4-only transport follow-up
	ProbeV6                    // IPv6-only transport follow-up
	ProbeTC                    // truncation (TCP) follow-up
)

// String names the probe kind.
func (k ProbeKind) String() string {
	switch k {
	case ProbeMain:
		return "main"
	case ProbeV4:
		return "v4"
	case ProbeV6:
		return "v6"
	case ProbeTC:
		return "tc"
	default:
		return "?"
	}
}

// zoneFor returns the zone apex for a probe kind.
func zoneFor(kind ProbeKind) dnswire.Name {
	switch kind {
	case ProbeV4:
		return "v4.dns-lab.org"
	case ProbeV6:
		return "v6.dns-lab.org"
	case ProbeTC:
		return "tc.dns-lab.org"
	default:
		return "dns-lab.org"
	}
}

// EncodeQName builds the experiment query name.
func EncodeQName(ts time.Duration, src, dst netip.Addr, asn routing.ASN, kw string, kind ProbeKind) dnswire.Name {
	return dnswire.NewName(
		strconv.FormatInt(int64(ts), 10),
		EncodeAddr(src),
		EncodeAddr(dst),
		strconv.FormatUint(uint64(asn), 10),
		kw,
	) + "." + zoneFor(kind)
}

// Decoded is a parsed experiment query name.
type Decoded struct {
	TS   time.Duration
	Src  netip.Addr
	Dst  netip.Addr
	ASN  routing.ASN
	Kw   string
	Kind ProbeKind
}

// DecodeQName parses a query name observed at the authoritative
// servers. full reports whether the name carries all five experiment
// labels; a QNAME-minimized query (e.g. "kw.dns-lab.org") decodes with
// full=false and only Kw set (when recognizable).
func DecodeQName(name dnswire.Name, kw string) (d Decoded, full bool, partial bool) {
	labels := name.Labels()
	// Find the zone suffix.
	var kind ProbeKind
	var zoneLabels int
	switch {
	case name.IsSubdomainOf("v4.dns-lab.org"):
		kind, zoneLabels = ProbeV4, 3
	case name.IsSubdomainOf("v6.dns-lab.org"):
		kind, zoneLabels = ProbeV6, 3
	case name.IsSubdomainOf("tc.dns-lab.org"):
		kind, zoneLabels = ProbeTC, 3
	case name.IsSubdomainOf("dns-lab.org"):
		kind, zoneLabels = ProbeMain, 2
	default:
		return d, false, false
	}
	d.Kind = kind
	rest := labels[:len(labels)-zoneLabels]
	if len(rest) == 0 {
		return d, false, false
	}
	// A full name has exactly ts.src.dst.asn.kw.
	if len(rest) == 5 && rest[4] == kw {
		tsv, err1 := strconv.ParseInt(rest[0], 10, 64)
		src, err2 := DecodeAddr(rest[1])
		dst, err3 := DecodeAddr(rest[2])
		asn, err4 := strconv.ParseUint(rest[3], 10, 32)
		if err1 == nil && err2 == nil && err3 == nil && err4 == nil {
			d.TS = time.Duration(tsv)
			d.Src, d.Dst = src, dst
			d.ASN = routing.ASN(asn)
			d.Kw = kw
			return d, true, false
		}
	}
	// Partial (QNAME-minimized): the rightmost remaining label should be
	// the keyword for a recognizable experiment name.
	if rest[len(rest)-1] == kw {
		d.Kw = kw
		return d, false, true
	}
	return d, false, false
}
