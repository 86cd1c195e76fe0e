package packet

import (
	"encoding/binary"
	"net/netip"
)

// onesSum accumulates data into a ones'-complement running sum.
func onesSum(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// foldSum folds a ones'-complement running sum into a 16-bit checksum.
func foldSum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Checksum computes the Internet checksum (RFC 1071) of data.
//
//doors:hotpath
func Checksum(data []byte) uint16 { return foldSum(onesSum(0, data)) }

// pseudoHeaderSum computes the ones'-complement sum of the IPv4 or IPv6
// pseudo-header used by UDP and TCP checksums.
func pseudoHeaderSum(src, dst netip.Addr, proto uint8, length int) uint32 {
	sum := uint32(proto) + uint32(length)
	if src.Is4() && dst.Is4() {
		s, d := src.As4(), dst.As4()
		return onesSum(onesSum(sum, s[:]), d[:])
	}
	s, d := src.As16(), dst.As16()
	return onesSum(onesSum(sum, s[:]), d[:])
}

// TransportChecksum computes the UDP/TCP checksum over the pseudo-header
// and segment. Over a segment whose checksum field is zeroed, it is the
// value to send. Over a received segment, checksum field included, it
// is zero exactly when the segment verifies; that includes a UDP
// checksum that computed to zero and travels as 0xffff (RFC 768).
//
//doors:hotpath
func TransportChecksum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	return foldSum(onesSum(pseudoHeaderSum(src, dst, proto, len(segment)), segment))
}
