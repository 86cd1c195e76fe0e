package scanner

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/routing"
)

// decodeAddrReference is the reference DecodeAddr: it rewrites every
// label to the address's text form and parses that.
func decodeAddrReference(label string) (netip.Addr, error) {
	switch {
	case strings.HasPrefix(label, "v4-"):
		return netip.ParseAddr(strings.ReplaceAll(label[3:], "-", "."))
	case strings.HasPrefix(label, "v6-"):
		return netip.ParseAddr(strings.ReplaceAll(label[3:], "-", ":"))
	default:
		return netip.Addr{}, fmt.Errorf("scanner: bad address label %q", label)
	}
}

// decodeQNameReference is the reference DecodeQName: it splits the
// name into a label slice and reads the labels by position.
func decodeQNameReference(name dnswire.Name, kw string) (d Decoded, full bool, partial bool) {
	labels := name.Labels()
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
	if len(rest) == 5 && rest[4] == kw {
		tsv, err1 := strconv.ParseInt(rest[0], 10, 64)
		src, err2 := decodeAddrReference(rest[1])
		dst, err3 := decodeAddrReference(rest[2])
		asn, err4 := strconv.ParseUint(rest[3], 10, 32)
		if err1 == nil && err2 == nil && err3 == nil && err4 == nil {
			d.TS = time.Duration(tsv)
			d.Src, d.Dst = src, dst
			d.ASN = routing.ASN(asn)
			d.Kw = kw
			return d, true, false
		}
	}
	if rest[len(rest)-1] == kw {
		d.Kw = kw
		return d, false, true
	}
	return d, false, false
}

// crossFamily reports whether the reference decodes label to an
// address of the other family from the label's tag.
func crossFamily(label string) bool {
	a, err := decodeAddrReference(label)
	return err == nil && a.Is4() != strings.HasPrefix(label, "v4-")
}

// FuzzDecodeQName requires DecodeQName to decode every name as the
// reference does, (Decoded, full, partial) alike, and DecodeAddr to
// parse the name and each of its labels to the reference's address,
// failing where the reference fails. The one exception is a label the
// reference decodes to the other family from its tag: DecodeAddr must
// fail on it, and a name with such a source or target is partial.
func FuzzDecodeQName(f *testing.F) {
	v4a, v4b := netip.MustParseAddr("203.0.113.7"), netip.MustParseAddr("198.51.100.53")
	v6a, v6b := netip.MustParseAddr("2001:db8::53"), netip.MustParseAddr("::1")
	mapped := netip.MustParseAddr("::ffff:192.0.2.1")
	for _, kind := range []ProbeKind{ProbeMain, ProbeV4, ProbeV6, ProbeTC} {
		for _, pair := range [][2]netip.Addr{{v4a, v4b}, {v6a, v6b}, {mapped, v4b}, {v4a, mapped}} {
			f.Add(string(EncodeQName(1234567890, pair[0], pair[1], 64500, "x1", kind)), "x1")
		}
		f.Add(string(EncodeQName(0, netip.IPv4Unspecified(), netip.MustParseAddr("255.255.255.255"), 4294967295, "x1", kind)), "x1")
	}
	for _, name := range []string{
		"x1.dns-lab.org", "64500.x1.dns-lab.org", "v4-198-51-100-53.64500.x1.v4.dns-lab.org",
		"dns-lab.org", "tc.dns-lab.org", ".dns-lab.org", "..x1.dns-lab.org", "X1.DNS-LAB.ORG",
		"1.v4-1-2-3-4.v4-1-2-3-4.5.x2.dns-lab.org", "1.v4-01-2-3-4.v4-1-2-3-4.5.x1.dns-lab.org",
		"1.v4-256-2-3-4.v4-1-2-3-4.5.x1.dns-lab.org", "1.v4-::1.v4-1-2-3.5.x1.dns-lab.org",
		"1.v4-::1.v4-1-2-3-4.5.x1.dns-lab.org", "1.v4-1-2-3-4.v4-1:2::3.5.x1.v6.dns-lab.org", "v4-1.2.3.4", "v6-1.2.3.4",
		"1.v4-1-2-3-4-5.v6-zz.99999999999.x1.dns-lab.org", "-1.v4-0-0-0-0.v6---.0.x1.tc.dns-lab.org",
		"www.example.com", "a.b.other.org", "", "v4-1-2-3-4", "v6-2001-db8--1%eth0",
		"v6---", "v6---1", "v6-2001-db8--", "v6-1-2-3-4-5-6-7-8", "v6-1-2-3-4-5-6-7--", "v6-1-2-3-4-5-6-7-8-9",
		"v6-0001--1", "v6-1--2--3", "v6-ABCD--1", "v6-12345--1", "v6---ffff-102-304", "v6-1-0-0-0-0-0-0-1",
		"v6-1-0-0-2-0-0-0-3", "v6-1---2", "v6--1", "v6-1-", "v6-", "v6--",
	} {
		f.Add(name, "x1")
	}
	f.Add("..dns-lab.org", "")
	f.Fuzz(func(t *testing.T, name, kw string) {
		d, full, partial := DecodeQName(dnswire.Name(name), kw)
		wd, wfull, wpartial := decodeQNameReference(dnswire.Name(name), kw)
		if l := dnswire.Name(name).Labels(); wfull && (crossFamily(l[1]) || crossFamily(l[2])) {
			wd, wfull, wpartial = Decoded{Kind: wd.Kind, Kw: wd.Kw}, false, true
		}
		if d != wd || full != wfull || partial != wpartial {
			t.Fatalf("DecodeQName(%q, %q) = %+v, %v, %v; reference %+v, %v, %v",
				name, kw, d, full, partial, wd, wfull, wpartial)
		}
		for _, label := range append(strings.Split(name, "."), name) {
			a, err := DecodeAddr(label)
			wa, werr := decodeAddrReference(label)
			if crossFamily(label) {
				wa, werr = netip.Addr{}, fmt.Errorf("cross-family label %q", label)
			}
			if a != wa || (err == nil) != (werr == nil) {
				t.Fatalf("DecodeAddr(%q) = %v, %v; reference %v, %v", label, a, err, wa, werr)
			}
		}
	})
}

// TestDecodeQNameAllocations pins the decode of a full name, the one
// the scanner's monitor runs on every experiment query, at no
// allocation, with IPv4 addresses and with IPv6 ones.
func TestDecodeQNameAllocations(t *testing.T) {
	for _, name := range []dnswire.Name{
		EncodeQName(1234567890, addr("203.0.113.7"), addr("198.51.100.53"), 64500, "x1", ProbeV4),
		EncodeQName(1234567890, addr("2001:db8:0:7::53"), addr("2001:db8:1:2:3:4:5:6"), 64500, "x1", ProbeV6),
	} {
		var full bool
		if a := testing.AllocsPerRun(100, func() { _, full, _ = DecodeQName(name, "x1") }); a != 0 || !full {
			t.Fatalf("decoding %q allocates %v times (full=%v), want 0", string(name), a, full)
		}
	}
}
