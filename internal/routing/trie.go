// Package routing models the control-plane state the experiment depends
// on: which AS originates which prefixes, longest-prefix-match lookup
// from an address to its origin AS, the IANA special-purpose ("bogon")
// address registry used for target admission, and the /24 and /64
// prefix arithmetic the spoofed-source generator needs.
package routing

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// ASN is an autonomous system number.
type ASN uint32

// String formats the ASN in the conventional "ASxxxx" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// trieNode is a binary (unibit) trie node.
type trieNode struct {
	child [2]*trieNode
	set   bool
	val   ASN
}

// Trie is a longest-prefix-match table from IP prefixes to origin ASNs.
// It handles IPv4 and IPv6 prefixes in separate roots. The zero value is
// an empty table.
type Trie struct {
	v4, v6 trieNode
	n      int
}

// Len reports the number of inserted prefixes.
func (t *Trie) Len() int { return t.n }

// addrWords returns addr's bits as two big-endian words, most
// significant bit first: an IPv4 address fills the top 32 bits of hi,
// an IPv6 address (IPv4-mapped included) all 128.
func addrWords(a netip.Addr) (hi, lo uint64) {
	if a.Is4() {
		b := a.As4()
		return uint64(binary.BigEndian.Uint32(b[:])) << 32, 0
	}
	b := a.As16()
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// Insert maps prefix to asn, replacing any previous mapping for the exact
// prefix.
func (t *Trie) Insert(prefix netip.Prefix, asn ASN) {
	prefix = prefix.Masked()
	root := &t.v6
	if prefix.Addr().Is4() {
		root = &t.v4
	}
	node := root
	w, lo := addrWords(prefix.Addr())
	for i := 0; i < prefix.Bits(); i++ {
		if i == 64 {
			w = lo
		}
		bit := w >> 63
		w <<= 1
		if node.child[bit] == nil {
			node.child[bit] = &trieNode{}
		}
		node = node.child[bit]
	}
	if !node.set {
		t.n++
	}
	node.set = true
	node.val = asn
}

// Lookup returns the origin ASN for the longest matching prefix and
// whether any prefix matched. The address is read into two words once;
// each level takes its bit off the top of the current word.
//
//doors:hotpath
func (t *Trie) Lookup(addr netip.Addr) (ASN, bool) {
	root := &t.v6
	bits := 128
	if addr.Is4() {
		root = &t.v4
		bits = 32
	}
	node := root
	var best ASN
	found := false
	if node.set {
		best, found = node.val, true
	}
	w, lo := addrWords(addr)
	for i := 0; i < bits && node != nil; i++ {
		if i == 64 {
			w = lo
		}
		node = node.child[w>>63]
		w <<= 1
		if node != nil && node.set {
			best, found = node.val, true
		}
	}
	return best, found
}
