package ditl

import "net/netip"

// PartitionIndices splits the index range [0, n) into k contiguous,
// balanced slices: the first n%k slices hold one extra index. The
// concatenation of the slices, in order, is exactly 0..n-1, which is
// what lets a sharded survey merge shard-local results back into the
// single-shard order deterministically. k <= 1 yields one slice; k > n
// yields trailing empty slices so callers can still index by shard.
func PartitionIndices(n, k int) [][]int {
	if k < 1 {
		k = 1
	}
	if n < 0 {
		n = 0
	}
	out := make([][]int, k)
	base, extra := n/k, n%k
	next := 0
	for s := 0; s < k; s++ {
		size := base
		if s < extra {
			size++
		}
		part := make([]int, size)
		for i := range part {
			part[i] = next
			next++
		}
		out[s] = part
	}
	return out
}

// CandidateCount returns the number of DITL-derived candidate target
// addresses (live resolver v4+v6 addresses plus dead targets) across
// the ASes named by indices; nil means the whole population. Callers
// use it to pre-size candidate slices before collecting the addresses.
// The streaming *View answers the same question from its index in
// O(len(indices)) without generating anything.
func (p *Population) CandidateCount(indices []int) int {
	n := 0
	EachCandidate(p, indices, func(netip.Addr) { n++ })
	return n
}

// V6AddrCount returns the number of IPv6 candidate addresses (live and
// dead) in the population — an upper bound on the IPv6 hit-list size,
// used to pre-size the hit-list map.
func (p *Population) V6AddrCount() int { return p.Summarize().TargetsV6 }
