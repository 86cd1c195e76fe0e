package routing

import "net/netip"

// specialPurpose lists the IANA special-purpose registries (RFC 6890)
// relevant to the experiment: addresses in these blocks are excluded from
// targeting (§3.1) and are treated as bogons by borders that filter them.
var specialPurpose = func() []netip.Prefix {
	raw := []string{
		// IPv4 (RFC 6890 and successors)
		"0.0.0.0/8",          // "this network"
		"10.0.0.0/8",         // private
		"100.64.0.0/10",      // shared address space (CGN)
		"127.0.0.0/8",        // loopback
		"169.254.0.0/16",     // link local
		"172.16.0.0/12",      // private
		"192.0.0.0/24",       // IETF protocol assignments
		"192.0.2.0/24",       // TEST-NET-1
		"192.88.99.0/24",     // 6to4 relay anycast
		"192.168.0.0/16",     // private
		"198.18.0.0/15",      // benchmarking
		"198.51.100.0/24",    // TEST-NET-2
		"203.0.113.0/24",     // TEST-NET-3
		"224.0.0.0/4",        // multicast
		"240.0.0.0/4",        // reserved
		"255.255.255.255/32", // limited broadcast
		// IPv6
		"::1/128",       // loopback
		"::/128",        // unspecified
		"::ffff:0:0/96", // IPv4-mapped
		"64:ff9b::/96",  // IPv4-IPv6 translation
		"100::/64",      // discard-only
		"2001::/23",     // IETF protocol assignments
		"2001:db8::/32", // documentation
		"2002::/16",     // 6to4
		"fc00::/7",      // unique local
		"fe80::/10",     // link local
		"ff00::/8",      // multicast
	}
	out := make([]netip.Prefix, len(raw))
	for i, s := range raw {
		out[i] = netip.MustParsePrefix(s)
	}
	return out
}()

// The special-purpose blocks split for a constant-time test: the IPv4
// blocks indexed by first octet, each octet listing the blocks that
// start with it (one block covering the whole octet, or the few smaller
// ones of 100, 169, 172, 192, 198 and 203), and the IPv6 blocks.
var specialV4, specialV6 = func() (byOctet [256][]netip.Prefix, v6 []netip.Prefix) {
	for _, p := range specialPurpose {
		if !p.Addr().Is4() {
			v6 = append(v6, p)
			continue
		}
		first, span := int(p.Addr().As4()[0]), 1
		if p.Bits() < 8 {
			span = 1 << (8 - p.Bits())
		}
		for o := first; o < first+span; o++ {
			byOctet[o] = append(byOctet[o], p)
		}
	}
	return byOctet, v6
}()

// IsSpecialPurpose reports whether addr falls in an IANA special-purpose
// block (RFC 6890): private, loopback, documentation, multicast, etc. An
// IPv4 address meets at most the four blocks of its first octet.
//
//doors:hotpath
func IsSpecialPurpose(addr netip.Addr) bool {
	blocks := specialV6
	if addr.Is4() {
		blocks = specialV4[addr.As4()[0]]
	}
	for _, p := range blocks {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// uniqueLocal is fc00::/7, parsed once: IsPrivate sits on the scanner
// categorization hot path and must not re-parse the prefix per call.
var uniqueLocal = netip.MustParsePrefix("fc00::/7")

// IsPrivate reports whether addr is RFC 1918 private or IPv6 unique-local
// space — the category the paper spoofs as "private or unique local".
//
//doors:hotpath
func IsPrivate(addr netip.Addr) bool {
	return addr.IsPrivate() || (addr.Is6() && uniqueLocal.Contains(addr))
}

// IsLoopback reports whether addr is the IPv4 or IPv6 loopback.
//
//doors:hotpath
func IsLoopback(addr netip.Addr) bool { return addr.IsLoopback() }
