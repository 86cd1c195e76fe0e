package routing

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustAddr(s string) netip.Addr     { return netip.MustParseAddr(s) }

func TestTrieLongestMatch(t *testing.T) {
	var tr Trie
	tr.Insert(mustPrefix("10.0.0.0/8"), 100)
	tr.Insert(mustPrefix("10.1.0.0/16"), 200)
	tr.Insert(mustPrefix("10.1.2.0/24"), 300)

	cases := []struct {
		addr string
		want ASN
	}{
		{"10.9.9.9", 100},
		{"10.1.9.9", 200},
		{"10.1.2.9", 300},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(mustAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %v,%v want %v", c.addr, got, ok, c.want)
		}
	}
	if _, ok := tr.Lookup(mustAddr("11.0.0.1")); ok {
		t.Error("unrouted v4 address matched")
	}
}

func TestTrieV6(t *testing.T) {
	var tr Trie
	tr.Insert(mustPrefix("2001:db8::/32"), 64500)
	tr.Insert(mustPrefix("2001:db8:1::/48"), 64501)
	if got, ok := tr.Lookup(mustAddr("2001:db8:1::5")); !ok || got != 64501 {
		t.Fatalf("v6 longest match = %v,%v", got, ok)
	}
	if got, ok := tr.Lookup(mustAddr("2001:db8:2::5")); !ok || got != 64500 {
		t.Fatalf("v6 covering match = %v,%v", got, ok)
	}
	if _, ok := tr.Lookup(mustAddr("2001:db9::1")); ok {
		t.Fatal("unrouted v6 address matched")
	}
}

func TestTrieFamiliesAreSeparate(t *testing.T) {
	var tr Trie
	tr.Insert(mustPrefix("0.0.0.0/0"), 1)
	if _, ok := tr.Lookup(mustAddr("2001:db8::1")); ok {
		t.Fatal("v4 default route matched a v6 address")
	}
	tr.Insert(mustPrefix("::/0"), 2)
	if got, _ := tr.Lookup(mustAddr("1.2.3.4")); got != 1 {
		t.Fatal("v6 default route shadowed v4")
	}
}

func TestTrieExactReplacement(t *testing.T) {
	var tr Trie
	tr.Insert(mustPrefix("192.0.2.0/24"), 7)
	tr.Insert(mustPrefix("192.0.2.0/24"), 8)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if got, _ := tr.Lookup(mustAddr("192.0.2.1")); got != 8 {
		t.Fatalf("Lookup = %v, want replacement 8", got)
	}
}

func TestRegistryOrigin(t *testing.T) {
	r := NewRegistry()
	as1 := &AS{ASN: 64500, Prefixes: []netip.Prefix{mustPrefix("198.51.100.0/24"), mustPrefix("2001:db8:100::/48")}}
	as2 := &AS{ASN: 64501, Prefixes: []netip.Prefix{mustPrefix("203.0.113.0/24")}}
	if err := r.Add(as1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(as2); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(&AS{ASN: 64500}); err == nil {
		t.Fatal("duplicate ASN accepted")
	}
	if got := r.OriginOf(mustAddr("198.51.100.50")); got != as1 {
		t.Fatalf("OriginOf v4 = %v", got)
	}
	if got := r.OriginOf(mustAddr("2001:db8:100::9")); got != as1 {
		t.Fatalf("OriginOf v6 = %v", got)
	}
	if r.OriginOf(mustAddr("8.8.8.8")) != nil {
		t.Fatal("unrouted address has origin")
	}
	if r.OriginOf(mustAddr("203.0.113.1")) == nil || r.OriginOf(mustAddr("9.9.9.9")) != nil {
		t.Fatal("OriginOf misreports routedness")
	}
	asns := r.ASNs()
	if len(asns) != 2 || asns[0] != 64500 || asns[1] != 64501 {
		t.Fatalf("ASNs = %v", asns)
	}
}

func TestASOriginatesAndFamilies(t *testing.T) {
	as := &AS{ASN: 1, Prefixes: []netip.Prefix{
		mustPrefix("198.51.100.0/24"), mustPrefix("192.0.2.0/25"), mustPrefix("2001:db8::/40"),
	}}
	if !as.Originates(mustAddr("192.0.2.5")) {
		t.Fatal("Originates false negative")
	}
	if as.Originates(mustAddr("192.0.2.200")) {
		t.Fatal("Originates false positive outside /25")
	}
	if len(as.V4Prefixes()) != 2 || len(as.V6Prefixes()) != 1 {
		t.Fatalf("family split: %d v4, %d v6", len(as.V4Prefixes()), len(as.V6Prefixes()))
	}
}

// TestPrefixFamilies splits announcements by family in every order. An
// AS that lists its IPv4 prefixes first, as the world builder announces
// them, gets subslices of Prefixes without an allocation, and appending
// to its IPv4 slice cannot overwrite its IPv6 prefixes; any other order
// gets the same split in new slices.
func TestPrefixFamilies(t *testing.T) {
	v4a, v4b := mustPrefix("198.51.100.0/24"), mustPrefix("192.0.2.0/25")
	v6a, v6b := mustPrefix("2001:db8::/40"), mustPrefix("2001:db8:100::/48")
	for _, c := range []struct {
		name          string
		prefixes      []netip.Prefix
		wantV4, want6 []netip.Prefix
		grouped       bool
	}{
		{"v4 then v6", []netip.Prefix{v4a, v4b, v6a, v6b}, []netip.Prefix{v4a, v4b}, []netip.Prefix{v6a, v6b}, true},
		{"v4 only", []netip.Prefix{v4b, v4a}, []netip.Prefix{v4b, v4a}, nil, true},
		{"v6 only", []netip.Prefix{v6b, v6a}, nil, []netip.Prefix{v6b, v6a}, true},
		{"none", nil, nil, nil, true},
		{"v6 first", []netip.Prefix{v6a, v4a, v4b}, []netip.Prefix{v4a, v4b}, []netip.Prefix{v6a}, false},
		{"interleaved", []netip.Prefix{v4a, v6a, v4b, v6b}, []netip.Prefix{v4a, v4b}, []netip.Prefix{v6a, v6b}, false},
	} {
		as := &AS{ASN: 1, Prefixes: slices.Clone(c.prefixes)}
		v4, v6 := as.V4Prefixes(), as.V6Prefixes()
		if !slices.Equal(v4, c.wantV4) || !slices.Equal(v6, c.want6) {
			t.Errorf("%s: split %v | %v, want %v | %v", c.name, v4, v6, c.wantV4, c.want6)
		}
		if !c.grouped {
			continue
		}
		if a := testing.AllocsPerRun(100, func() { v4, v6 = as.V4Prefixes(), as.V6Prefixes() }); a != 0 {
			t.Errorf("%s: %v allocs per split, want 0", c.name, a)
		}
		_ = append(v4, mustPrefix("203.0.113.0/24"))
		if !slices.Equal(as.Prefixes, c.prefixes) || !slices.Equal(as.V6Prefixes(), c.want6) {
			t.Errorf("%s: appending to the IPv4 prefixes wrote Prefixes: %v", c.name, as.Prefixes)
		}
	}
}

func TestSpecialPurpose(t *testing.T) {
	special := []string{
		"10.1.2.3", "192.168.0.10", "172.16.5.5", "127.0.0.1", "169.254.1.1",
		"224.0.0.5", "255.255.255.255", "100.64.0.1", "198.18.0.1",
		"::1", "fc00::10", "fe80::1", "ff02::1", "2001:db8::1", "2002::1",
	}
	for _, s := range special {
		if !IsSpecialPurpose(mustAddr(s)) {
			t.Errorf("IsSpecialPurpose(%s) = false", s)
		}
	}
	public := []string{"8.8.8.8", "198.51.99.1", "2600::1", "2a00::1"}
	for _, s := range public {
		if IsSpecialPurpose(mustAddr(s)) {
			t.Errorf("IsSpecialPurpose(%s) = true", s)
		}
	}
}

// TestSpecialPurposeMatchesLinearScan checks the first-octet table
// against Contains over every block in turn: on random IPv4 and IPv6
// addresses, random addresses inside each block, each block's first and
// last address and their neighbours, and zoned, IPv4-mapped and invalid
// addresses.
func TestSpecialPurposeMatchesLinearScan(t *testing.T) {
	linear := func(a netip.Addr) bool {
		for _, p := range specialPurpose {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(11))
	randAddr := func(v4 bool) netip.Addr {
		if v4 {
			var b [4]byte
			rng.Read(b[:])
			return netip.AddrFrom4(b)
		}
		var b [16]byte
		rng.Read(b[:])
		return netip.AddrFrom16(b)
	}
	var probes []netip.Addr
	for i := 0; i < 20000; i++ {
		probes = append(probes, randAddr(i%2 == 0))
	}
	for _, p := range specialPurpose {
		first := p.Addr().AsSlice()
		last := p.Addr().AsSlice()
		for i := p.Bits(); i < len(last)*8; i++ {
			last[i/8] |= byte(0x80) >> (i % 8)
		}
		lo, _ := netip.AddrFromSlice(first)
		hi, _ := netip.AddrFromSlice(last)
		probes = append(probes, lo, hi, lo.Prev(), hi.Next())
		for i := 0; i < 50; i++ {
			in := randAddr(p.Addr().Is4()).AsSlice()
			for b := 0; b < p.Bits(); b++ {
				m := byte(0x80) >> (b % 8)
				in[b/8] = in[b/8]&^m | first[b/8]&m
			}
			a, _ := netip.AddrFromSlice(in)
			probes = append(probes, a)
		}
	}
	probes = append(probes, netip.Addr{},
		mustAddr("fe80::1%eth0"), mustAddr("::1%lo"), mustAddr("2001:db8::1%1"), mustAddr("2600::1%eth1"),
		mustAddr("::ffff:10.1.2.3"), mustAddr("::ffff:8.8.8.8"), mustAddr("::ffff:0.0.0.0"),
		mustAddr("::ffff:255.255.255.255"), mustAddr("::a00:1"))
	special := 0
	for _, a := range probes {
		for _, a := range []netip.Addr{a, netip.AddrFrom16(a.As16())} { // as given, and IPv4-mapped or unzoned
			want := linear(a)
			if got := IsSpecialPurpose(a); got != want {
				t.Fatalf("IsSpecialPurpose(%v) = %v; the linear scan says %v", a, got, want)
			}
			if want {
				special++
			}
		}
	}
	if special < len(specialPurpose)*50 {
		t.Fatalf("only %d of %d probes are special-purpose", special, 2*len(probes))
	}
}

func TestIsPrivateAndLoopback(t *testing.T) {
	if !IsPrivate(mustAddr("192.168.0.10")) || !IsPrivate(mustAddr("fc00::10")) {
		t.Fatal("paper's private spoof sources must be private")
	}
	if IsPrivate(mustAddr("8.8.8.8")) || IsPrivate(mustAddr("2600::1")) {
		t.Fatal("public address classified private")
	}
	if !IsLoopback(mustAddr("127.0.0.1")) || !IsLoopback(mustAddr("::1")) {
		t.Fatal("loopback misclassified")
	}
}

func TestSubnetAtV4(t *testing.T) {
	p := mustPrefix("198.51.0.0/22")
	if n := SubnetCount(p, 0); n != 4 {
		t.Fatalf("a /22 splits into %d /24s, want 4", n)
	}
	if SubnetAt(p, 0) != mustPrefix("198.51.0.0/24") || SubnetAt(p, 3) != mustPrefix("198.51.3.0/24") {
		t.Fatalf("subnets 0 and 3 = %v, %v", SubnetAt(p, 0), SubnetAt(p, 3))
	}
	// A /24 or smaller yields its enclosing /24.
	p = mustPrefix("198.51.100.128/25")
	if n, sub := SubnetCount(p, 0), SubnetAt(p, 0); n != 1 || sub != mustPrefix("198.51.100.0/24") {
		t.Fatalf("small prefix: %d subnets, first %v", n, sub)
	}
}

func TestSubnetCountCap(t *testing.T) {
	if n := SubnetCount(mustPrefix("10.0.0.0/8"), 97); n != 97 {
		t.Fatalf("cap: got %d subnets, want 97 (the paper's other-prefix cap)", n)
	}
}

func TestSubnetAtV6(t *testing.T) {
	p := mustPrefix("2001:db8:0:4::/62")
	if n := SubnetCount(p, 0); n != 4 {
		t.Fatalf("a /62 splits into %d /64s, want 4", n)
	}
	if sub := SubnetAt(p, 1); sub != mustPrefix("2001:db8:0:5::/64") {
		t.Fatalf("subnet 1 = %v", sub)
	}
}

// An IPv6 /0 or /1 holds 2^64 or 2^63 /64s, more than an int counts: the
// count saturates instead of wrapping to zero or going negative.
func TestSubnetCountShortV6Prefixes(t *testing.T) {
	for _, c := range []struct {
		p, first, sixteenth, last netip.Prefix
	}{
		{mustPrefix("::/0"), mustPrefix("::/64"), mustPrefix("0:0:0:f::/64"), mustPrefix("7fff:ffff:ffff:ffff::/64")},
		{mustPrefix("8000::/1"), mustPrefix("8000::/64"), mustPrefix("8000:0:0:f::/64"), mustPrefix("ffff:ffff:ffff:ffff::/64")},
	} {
		if n := SubnetCount(c.p, 16); n != 16 {
			t.Errorf("SubnetCount(%v, 16) = %d, want 16", c.p, n)
		}
		if n := SubnetCount(c.p, 0); n != math.MaxInt {
			t.Errorf("SubnetCount(%v, 0) = %d, want math.MaxInt", c.p, n)
		}
		for i, want := range map[int]netip.Prefix{0: c.first, 15: c.sixteenth, math.MaxInt: c.last} {
			if got := SubnetAt(c.p, i); got != want {
				t.Errorf("SubnetAt(%v, %d) = %v, want %v", c.p, i, got, want)
			}
		}
	}
}

// nextSubnet is the stepping loop SubnetAt replaced: it advances addr by
// one subnet of the given prefix length.
func nextSubnet(addr netip.Addr, bits int) netip.Addr {
	if addr.Is4() {
		a := addr.As4()
		v := binary.BigEndian.Uint32(a[:])
		v += 1 << (32 - bits)
		binary.BigEndian.PutUint32(a[:], v)
		return netip.AddrFrom4(a)
	}
	a := addr.As16()
	hi := binary.BigEndian.Uint64(a[0:8])
	hi += 1 << (64 - bits) // bits <= 64 for our /64 subdivision
	binary.BigEndian.PutUint64(a[0:8], hi)
	return netip.AddrFrom16(a)
}

// refSubnets lists prefix's first n subnets by stepping from its masked
// address with nextSubnet.
func refSubnets(prefix netip.Prefix, n int) []netip.Prefix {
	bits := V6SubnetBits
	if prefix.Addr().Is4() {
		bits = V4SubnetBits
	}
	out := make([]netip.Prefix, 0, n)
	for cur := prefix.Masked().Addr(); len(out) < n; cur = nextSubnet(cur, bits) {
		p, _ := cur.Prefix(bits)
		out = append(out, p)
	}
	return out
}

// refSubnetCount is prefix's subnet count in big-integer arithmetic,
// capped at max when max > 0 and at math.MaxInt.
func refSubnetCount(prefix netip.Prefix, max int) int {
	bits := V6SubnetBits
	if prefix.Addr().Is4() {
		bits = V4SubnetBits
	}
	n := big.NewInt(1)
	if shift := bits - prefix.Bits(); shift > 0 {
		n.Lsh(n, uint(shift))
	}
	if max > 0 && n.Cmp(big.NewInt(int64(max))) > 0 {
		return max
	}
	if n.Cmp(big.NewInt(math.MaxInt)) > 0 {
		return math.MaxInt
	}
	return int(n.Int64())
}

func TestSubnetAtMatchesStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		v4 := trial%2 == 0
		var b [16]byte
		rng.Read(b[:])
		addr, maxBits := netip.AddrFrom16(b), 128
		if v4 {
			addr, maxBits = netip.AddrFrom4([4]byte(b[:4])), 32
		}
		p := netip.PrefixFrom(addr, rng.Intn(maxBits+1))
		for _, pref := range []netip.Prefix{p, p.Masked()} { // host bits set, then clear
			if got, want := SubnetCount(pref, 0), refSubnetCount(pref, 0); got != want {
				t.Fatalf("SubnetCount(%v, 0) = %d, want %d", pref, got, want)
			}
			for _, max := range []int{1, 2, 4, 8, 16, 64, 98} {
				n := SubnetCount(pref, max)
				if want := refSubnetCount(pref, max); n != want {
					t.Fatalf("SubnetCount(%v, %d) = %d, want %d", pref, max, n, want)
				}
				for i, want := range refSubnets(pref, n) {
					if got := SubnetAt(pref, i); got != want {
						t.Fatalf("SubnetAt(%v, %d) = %v, want %v", pref, i, got, want)
					}
				}
			}
		}
	}
}

func TestSubnetOf(t *testing.T) {
	if SubnetOf(mustAddr("198.51.100.77")) != mustPrefix("198.51.100.0/24") {
		t.Fatal("v4 SubnetOf wrong")
	}
	if SubnetOf(mustAddr("2001:db8:1:2::77")) != mustPrefix("2001:db8:1:2::/64") {
		t.Fatal("v6 SubnetOf wrong")
	}
}

func TestRandomHostAddrRespectsReservedV4(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sub := mustPrefix("198.51.100.0/24")
	for i := 0; i < 2000; i++ {
		a := RandomHostAddr(sub, rng)
		if !sub.Contains(a) {
			t.Fatalf("address %v outside subnet", a)
		}
		off := Offset(a)
		if off == 0 || off == 255 {
			t.Fatalf("reserved offset %d selected (network/broadcast)", off)
		}
	}
}

func TestRandomHostAddrV6Window(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sub := mustPrefix("2001:db8:9::/64")
	for i := 0; i < 2000; i++ {
		a := RandomHostAddr(sub, rng)
		off := Offset(a)
		if off < 2 || off > 99 {
			t.Fatalf("v6 offset %d outside the paper's 2..99 window", off)
		}
	}
}

func TestAddrAt(t *testing.T) {
	if AddrAt(mustPrefix("198.51.100.0/24"), 10) != mustAddr("198.51.100.10") {
		t.Fatal("v4 AddrAt wrong")
	}
	if AddrAt(mustPrefix("2001:db8::/64"), 10) != mustAddr("2001:db8::a") {
		t.Fatal("v6 AddrAt wrong")
	}
}

func TestQuickTrieMatchesLinearScan(t *testing.T) {
	// Property: trie lookup == brute-force longest-prefix scan.
	prefixes := []netip.Prefix{
		mustPrefix("10.0.0.0/8"), mustPrefix("10.64.0.0/10"), mustPrefix("10.64.1.0/24"),
		mustPrefix("172.16.0.0/12"), mustPrefix("192.0.2.0/24"), mustPrefix("0.0.0.0/2"),
	}
	var tr Trie
	for i, p := range prefixes {
		tr.Insert(p, ASN(i+1))
	}
	linear := func(a netip.Addr) (ASN, bool) {
		best, bestBits, ok := ASN(0), -1, false
		for i, p := range prefixes {
			if p.Contains(a) && p.Bits() > bestBits {
				best, bestBits, ok = ASN(i+1), p.Bits(), true
			}
		}
		return best, ok
	}
	f := func(raw uint32) bool {
		var b [4]byte
		b[0] = byte(raw >> 24)
		b[1] = byte(raw >> 16)
		b[2] = byte(raw >> 8)
		b[3] = byte(raw)
		a := netip.AddrFrom4(b)
		g1, ok1 := tr.Lookup(a)
		g2, ok2 := linear(a)
		return ok1 == ok2 && (!ok1 || g1 == g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestTrieMatchesLinearScanRandomSets checks Lookup against a linear
// longest-match scan over random v4 and v6 prefix sets: default routes,
// host routes, prefixes nested inside earlier ones, repeats of earlier
// prefixes (the later mapping wins) and prefixes given with host bits
// set. The probes are random addresses plus every prefix's first and
// last address and their neighbours, each also in IPv4-mapped form,
// which looks up in the v6 table: no v4 prefix contains it.
func TestTrieMatchesLinearScanRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randAddr := func(v4 bool) netip.Addr {
		if v4 {
			var b [4]byte
			rng.Read(b[:])
			return netip.AddrFrom4(b)
		}
		var b [16]byte
		rng.Read(b[:])
		return netip.AddrFrom16(b)
	}
	// graft copies p's network bits over a.
	graft := func(p netip.Prefix, a netip.Addr) netip.Addr {
		pb, ab := p.Addr().AsSlice(), a.AsSlice()
		for i := 0; i < p.Bits(); i++ {
			m := byte(0x80) >> (i % 8)
			ab[i/8] = ab[i/8]&^m | pb[i/8]&m
		}
		out, _ := netip.AddrFromSlice(ab)
		return out
	}
	// last is the highest address in p.
	last := func(p netip.Prefix) netip.Addr {
		b := p.Masked().Addr().AsSlice()
		for i := p.Bits(); i < len(b)*8; i++ {
			b[i/8] |= byte(0x80) >> (i % 8)
		}
		out, _ := netip.AddrFromSlice(b)
		return out
	}
	type route struct {
		p   netip.Prefix
		asn ASN
	}
	linear := func(routes []route, a netip.Addr) (ASN, bool) {
		best, bestBits, ok := ASN(0), -1, false
		for _, r := range routes {
			if r.p.Contains(a) && r.p.Bits() >= bestBits { // >=: a repeat replaces
				best, bestBits, ok = r.asn, r.p.Bits(), true
			}
		}
		return best, ok
	}

	for round := 0; round < 40; round++ {
		var tr Trie
		var routes []route
		distinct := map[netip.Prefix]bool{}
		insert := func(p netip.Prefix) {
			asn := ASN(len(routes) + 1)
			tr.Insert(p, asn)
			routes = append(routes, route{p.Masked(), asn})
			distinct[p.Masked()] = true
		}
		if round%2 == 0 {
			insert(mustPrefix("0.0.0.0/0"))
			insert(mustPrefix("::/0"))
		}
		if round%4 == 1 {
			insert(mustPrefix("::ffff:0:0/96")) // covers every IPv4-mapped address
		}
		for i := 0; i < 80; i++ {
			v4 := rng.Intn(2) == 0
			size := 128
			if v4 {
				size = 32
			}
			a := randAddr(v4)
			bits := rng.Intn(size + 1)
			switch rng.Intn(5) {
			case 0: // host route
				bits = size
			case 1, 2: // nested inside (or equal to) an earlier prefix
				if len(routes) == 0 {
					break
				}
				if r := routes[rng.Intn(len(routes))]; r.p.Addr().Is4() == v4 {
					a = graft(r.p, a)
					bits = r.p.Bits() + rng.Intn(size-r.p.Bits()+1)
				}
			case 3: // repeat an earlier prefix, host bits set
				if len(routes) > 0 {
					r := routes[rng.Intn(len(routes))]
					insert(netip.PrefixFrom(graft(r.p, randAddr(r.p.Addr().Is4())), r.p.Bits()))
					continue
				}
			}
			insert(netip.PrefixFrom(a, bits)) // a keeps its host bits
		}
		if tr.Len() != len(distinct) {
			t.Fatalf("round %d: Len = %d, want %d distinct prefixes", round, tr.Len(), len(distinct))
		}

		var probes []netip.Addr
		for i := 0; i < 200; i++ {
			probes = append(probes, randAddr(i%2 == 0))
		}
		for _, r := range routes {
			lo, hi := r.p.Addr(), last(r.p)
			probes = append(probes, lo, hi, lo.Prev(), hi.Next())
		}
		for _, a := range probes {
			if !a.IsValid() {
				continue // Prev of the lowest or Next of the highest address
			}
			check := func(a netip.Addr) {
				got, gotOK := tr.Lookup(a)
				want, wantOK := linear(routes, a)
				if got != want || gotOK != wantOK {
					t.Fatalf("round %d: Lookup(%v) = %v,%v; linear scan says %v,%v", round, a, got, gotOK, want, wantOK)
				}
			}
			check(a)
			if a.Is4() {
				check(netip.AddrFrom16(a.As16()))
			}
		}
	}
}

func TestQuickSubnetContainsItsAddrs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(hi uint16, lo uint16) bool {
		base := netip.AddrFrom4([4]byte{byte(hi >> 8), byte(hi), byte(lo >> 8), 0})
		sub, _ := base.Prefix(24)
		a := RandomHostAddr(sub, rng)
		return sub.Contains(a) && SubnetOf(a) == sub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	var tr Trie
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		a := netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		p, _ := a.Prefix(8 + rng.Intn(17))
		tr.Insert(p, ASN(i))
	}
	b.ReportAllocs()
	addr := mustAddr("100.20.30.40")
	for i := 0; i < b.N; i++ {
		tr.Lookup(addr)
	}
}
