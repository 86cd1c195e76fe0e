package routing

import (
	"encoding/binary"
	"math"
	"math/bits"
	"net/netip"
)

// Rng is the draw interface RandomHostAddr consumes. Callers pass a
// generator derived from the causal identity of the choice (in this
// codebase, detrand.Rand keyed on seed and ASN) rather than a shared
// sequential stream, so host selection is independent of call order.
type Rng interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// SubnetBits are the subdivision sizes the paper uses when generating
// spoofed sources: /24 for IPv4 and /64 for IPv6 (§3.2).
const (
	V4SubnetBits = 24
	V6SubnetBits = 64
)

// SubnetOf returns the enclosing /24 (IPv4) or /64 (IPv6) of addr.
//
//doors:hotpath
func SubnetOf(addr netip.Addr) netip.Prefix {
	p, _ := addr.Prefix(subnetBits(addr))
	return p
}

func subnetBits(addr netip.Addr) int {
	if addr.Is4() {
		return V4SubnetBits
	}
	return V6SubnetBits
}

// SubnetCount reports how many /24s (IPv4) or /64s (IPv6) prefix splits
// into, capped at max when max > 0. A prefix as long as a subnet or
// longer counts as its one enclosing subnet. The count saturates at
// math.MaxInt rather than wrapping, as the 2^64 /64s of an IPv6 /0
// would.
func SubnetCount(prefix netip.Prefix, max int) int {
	n := 1
	switch shift := subnetBits(prefix.Addr()) - prefix.Bits(); {
	case shift >= bits.UintSize-1:
		n = math.MaxInt
	case shift > 0:
		n = 1 << shift
	}
	if max > 0 && n > max {
		n = max
	}
	return n
}

// SubnetAt returns prefix's i-th /24 (IPv4) or /64 (IPv6) in address
// order, for 0 <= i < SubnetCount(prefix, 0); a prefix longer than a
// subnet yields its enclosing subnet at i = 0. Callers index subnets
// instead of listing them, so drawing one allocates nothing.
func SubnetAt(prefix netip.Prefix, i int) netip.Prefix {
	base := prefix.Masked().Addr()
	if base.Is4() {
		a := base.As4()
		binary.BigEndian.PutUint32(a[:], binary.BigEndian.Uint32(a[:])+uint32(i)<<(32-V4SubnetBits))
		p, _ := netip.AddrFrom4(a).Prefix(V4SubnetBits)
		return p
	}
	a := base.As16() // a /64 is the high word, so step i adds i to it
	binary.BigEndian.PutUint64(a[:8], binary.BigEndian.Uint64(a[:8])+uint64(i))
	p, _ := netip.AddrFrom16(a).Prefix(V6SubnetBits)
	return p
}

// AddrAt returns the host address at the given offset within subnet.
func AddrAt(subnet netip.Prefix, offset uint64) netip.Addr {
	base := subnet.Masked().Addr()
	if base.Is4() {
		a := base.As4()
		v := binary.BigEndian.Uint32(a[:]) + uint32(offset)
		binary.BigEndian.PutUint32(a[:], v)
		return netip.AddrFrom4(a)
	}
	a := base.As16()
	lo := binary.BigEndian.Uint64(a[8:16]) + offset
	binary.BigEndian.PutUint64(a[8:16], lo)
	return netip.AddrFrom16(a)
}

// RandomHostAddr picks a usable host address within subnet using rng,
// following the paper's selection rules (§3.2): in an IPv4 /24 the first
// and last addresses are excluded (reserved network/broadcast); in an
// IPv6 /64 selection is limited to offsets 2..99 (the first two are often
// router addresses).
func RandomHostAddr(subnet netip.Prefix, rng Rng) netip.Addr {
	if subnet.Addr().Is4() {
		hostBits := 32 - subnet.Bits()
		size := uint64(1) << hostBits
		if size <= 2 {
			return subnet.Addr()
		}
		off := 1 + uint64(rng.Int63n(int64(size-2)))
		return AddrAt(subnet, off)
	}
	off := 2 + uint64(rng.Intn(98))
	return AddrAt(subnet, off)
}

// Offset reports addr's offset within its enclosing subnet.
func Offset(addr netip.Addr) uint64 {
	if addr.Is4() {
		a := addr.As4()
		return uint64(binary.BigEndian.Uint32(a[:]) & ((1 << (32 - V4SubnetBits)) - 1))
	}
	a := addr.As16()
	return binary.BigEndian.Uint64(a[8:16])
}
