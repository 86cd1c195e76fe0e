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

// DecodeAddr parses a label produced by EncodeAddr, holding it to its
// family tag: a "v4-" label's four decimal fields are read in place
// into an IPv4 address, and a "v6-" label must give an IPv6 one. A
// "v6-" label's hex groups are read in place too, and the address is
// taken when AppendAddrLabel writes it back as the same label, as it
// does for every label it wrote of an address not 4-in-6. Any other
// "v6-" label is rewritten to the address's text form for
// netip.ParseAddr.
func DecodeAddr(label string) (netip.Addr, error) {
	switch {
	case strings.HasPrefix(label, "v4-"):
		if a, ok := parseV4Fields(label[3:]); ok {
			return a, nil
		}
	case strings.HasPrefix(label, "v6-"):
		if a, ok := parseV6Groups(label[3:]); ok {
			var buf [64]byte
			if string(AppendAddrLabel(buf[:0], a)) == label {
				return a, nil
			}
		}
		if a, err := netip.ParseAddr(strings.ReplaceAll(label[3:], "-", ":")); err != nil || a.Is6() {
			return a, err
		}
	}
	return netip.Addr{}, fmt.Errorf("scanner: bad address label %q", label)
}

// parseV6Groups reads "2001-db8--53": groups of one to four lower-case
// hex digits separated by '-', eight of them, or fewer around one "--"
// that stands for the zero groups between. ok is false for anything
// else. It accepts some forms AppendAddrLabel never writes (a leading
// zero, a "--" standing for one group), which DecodeAddr tells apart
// by writing the address back.
func parseV6Groups(s string) (a netip.Addr, ok bool) {
	var g [8]uint16
	head, tail, elided := strings.Cut(s, "--")
	n, ok := readV6Groups(g[:], head)
	if !ok {
		return a, false
	}
	if elided {
		var t [8]uint16
		m, ok := readV6Groups(t[:], tail)
		if !ok || n+m > 7 {
			return a, false
		}
		copy(g[8-m:], t[:m])
	} else if n != 8 {
		return a, false
	}
	var b [16]byte
	for i, v := range g {
		b[2*i], b[2*i+1] = byte(v>>8), byte(v)
	}
	return netip.AddrFrom16(b), true
}

// readV6Groups reads s's '-'-separated hex groups into dst and returns
// how many it read; an empty s holds none. ok is false when a group is
// empty, longer than four digits or not hex, or when dst is too short.
func readV6Groups(dst []uint16, s string) (n int, ok bool) {
	if s == "" {
		return 0, true
	}
	val, digits := 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '-' {
			if digits == 0 || n == len(dst) {
				return n, false
			}
			dst[n] = uint16(val)
			n, val, digits = n+1, 0, 0
			continue
		}
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			val = val<<4 | int(c-'0')
		case 'a' <= c && c <= 'f':
			val = val<<4 | int(c-'a'+10)
		default:
			return n, false
		}
		if digits++; digits > 4 {
			return n, false
		}
	}
	return n, true
}

// parseV4Fields reads "198-51-100-7": four decimal fields, each 0 to
// 255 without a leading zero, separated by '-' (or '.'), which are
// exactly the strings netip.ParseAddr reads as IPv4 once every '-' is
// a dot. ok is false for anything else.
func parseV4Fields(s string) (a netip.Addr, ok bool) {
	var b [4]byte
	field, val, digits := 0, 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '-' || s[i] == '.' {
			if digits == 0 || field == len(b) {
				return a, false
			}
			b[field] = byte(val)
			field, val, digits = field+1, 0, 0
			continue
		}
		c := s[i]
		if c < '0' || c > '9' || digits > 0 && val == 0 {
			return a, false
		}
		val, digits = val*10+int(c-'0'), digits+1
		if val > 255 {
			return a, false
		}
	}
	if field != len(b) {
		return a, false
	}
	return netip.AddrFrom4(b), true
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
// full=false and only Kw set (when recognizable). The labels are read
// in place: a full name with IPv4 addresses decodes without allocating.
func DecodeQName(name dnswire.Name, kw string) (d Decoded, full bool, partial bool) {
	// Find the zone suffix.
	switch {
	case name.IsSubdomainOf(zoneFor(ProbeV4)):
		d.Kind = ProbeV4
	case name.IsSubdomainOf(zoneFor(ProbeV6)):
		d.Kind = ProbeV6
	case name.IsSubdomainOf(zoneFor(ProbeTC)):
		d.Kind = ProbeTC
	case name.IsSubdomainOf(zoneFor(ProbeMain)):
		d.Kind = ProbeMain
	default:
		return d, false, false
	}
	zone := zoneFor(d.Kind)
	if len(name) == len(zone) {
		return d, false, false // the apex carries no experiment label
	}
	// rest is the labels left of the zone. Its rightmost label is the
	// keyword in a full name and in a partial (QNAME-minimized) one.
	rest := string(name[:len(name)-len(zone)-1])
	if rest[strings.LastIndexByte(rest, '.')+1:] != kw {
		return d, false, false
	}
	d.Kw = kw
	// A full name has exactly ts.src.dst.asn.kw.
	if strings.Count(rest, ".") != 4 {
		return d, false, true
	}
	var l [4]string
	for k := range l {
		l[k], rest, _ = strings.Cut(rest, ".")
	}
	tsv, err1 := strconv.ParseInt(l[0], 10, 64)
	src, err2 := DecodeAddr(l[1])
	dst, err3 := DecodeAddr(l[2])
	asn, err4 := strconv.ParseUint(l[3], 10, 32)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return d, false, true
	}
	d.TS = time.Duration(tsv)
	d.Src, d.Dst = src, dst
	d.ASN = routing.ASN(asn)
	return d, true, false
}
