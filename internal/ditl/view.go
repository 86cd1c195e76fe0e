package ditl

import (
	"net/netip"

	"repro/internal/detrand"
)

// Pop abstracts over the two population representations: the eager
// *Population (every ASSpec materialized) and the streaming *View
// (each AS synthesized on demand, O(1) resident). The campaign engine
// and world builder consume this interface so a survey never needs
// the whole population in memory at once.
type Pop interface {
	// PopParams returns the generation parameters.
	PopParams() Params
	// NumASes returns the AS count.
	NumASes() int
	// EachAS visits the ASes selected by indices (nil = all, in
	// order). The *ASSpec passed to fn may be reused scratch: it and
	// everything reachable from it (except Countries and the prefix
	// slices, which are freshly allocated per AS) are valid only for
	// the duration of the callback.
	EachAS(indices []int, fn func(i int, as *ASSpec))
	// CandidateCount returns the number of candidate target addresses
	// (live resolver v4+v6 plus dead targets) across the ASes named by
	// indices; nil means the whole population.
	CandidateCount(indices []int) int
	// V6AddrCount returns the population-wide IPv6 candidate count.
	V6AddrCount() int
	// Summarize computes population statistics.
	Summarize() Stats
}

// PopParams implements Pop.
func (p *Population) PopParams() Params { return p.Params }

// NumASes implements Pop.
func (p *Population) NumASes() int { return len(p.ASes) }

// EachAS implements Pop; the visited *ASSpec values are the
// population's own (not scratch), so they remain valid after fn
// returns.
func (p *Population) EachAS(indices []int, fn func(i int, as *ASSpec)) {
	if indices == nil {
		for i, as := range p.ASes {
			fn(i, as)
		}
		return
	}
	for _, i := range indices {
		fn(i, p.ASes[i])
	}
}

// View is a streaming population: the same ASes Generate would build,
// synthesized on demand from the generator's draw stream. A one-time
// indexing pass records, per AS, the cumulative draw count, resolver
// index, and candidate-address count; EachAS then fast-forwards a
// fresh stream to any AS boundary (detrand.Counted.Skip) and replays
// genAS from there. Resident state is O(ASes) small integers — three
// prefix-sum columns — never the population itself.
//
// A View is safe for concurrent EachAS/CandidateCount calls: the
// index columns are frozen after NewView and each EachAS call owns
// its private stream and scratch.
type View struct {
	params Params
	// draws[i] = generator draws consumed before AS i (len n+1).
	draws []uint64
	// residx[i] = global resolver index before AS i (len n+1).
	residx []int32
	// cands[i] = candidate addresses in ASes [0, i) (len n+1).
	cands []int32
	// stats from the indexing pass (Summarize without a second sweep);
	// its target counts are the running candidate totals.
	stats Stats
}

// NewView builds a streaming view of the population Generate(p) would
// return, using one indexing sweep that retains only per-AS prefix
// sums.
func NewView(p Params) *View {
	p = p.withDefaults()
	v := &View{
		params: p,
		draws:  make([]uint64, 1, p.ASes+1),
		residx: make([]int32, 1, p.ASes+1),
		cands:  make([]int32, 1, p.ASes+1),
	}
	cs := detrand.NewCounted(uint64(p.Seed), saltPopulation)
	rng := cs.Rand()
	as := &ASSpec{slab: newResolverSlab()}
	used := make(map[netip.Addr]bool)
	resolverIdx := 0
	for i := 0; i < p.ASes; i++ {
		as.slab.truncate()
		resolverIdx = genAS(p, rng, i, resolverIdx, as, used)
		tallyAS(&v.stats, as)
		v.draws = append(v.draws, cs.Draws())
		v.residx = append(v.residx, int32(resolverIdx))
		v.cands = append(v.cands, int32(v.stats.TargetsV4+v.stats.TargetsV6))
	}
	return v
}

// PopParams implements Pop.
func (v *View) PopParams() Params { return v.params }

// NumASes implements Pop.
func (v *View) NumASes() int { return v.params.ASes }

// EachAS implements Pop by replaying the generator stream across the
// selected ASes. Contiguous ascending indices (the shard slices from
// PartitionIndices) cost one fast-forward plus one generation per AS;
// a backward jump restarts the stream. The *ASSpec handed to fn is
// reused scratch — valid only during the callback.
func (v *View) EachAS(indices []int, fn func(i int, as *ASSpec)) {
	cs := detrand.NewCounted(uint64(v.params.Seed), saltPopulation)
	rng := cs.Rand()
	as := &ASSpec{slab: newResolverSlab()}
	used := make(map[netip.Addr]bool)
	visit := func(i int) {
		if cs.Draws() > v.draws[i] {
			cs = detrand.NewCounted(uint64(v.params.Seed), saltPopulation)
			rng = cs.Rand()
		}
		cs.Skip(v.draws[i] - cs.Draws())
		as.slab.truncate()
		genAS(v.params, rng, i, int(v.residx[i]), as, used)
		fn(i, as)
	}
	if indices == nil {
		for i := 0; i < v.params.ASes; i++ {
			visit(i)
		}
		return
	}
	for _, i := range indices {
		visit(i)
	}
}

// CandidateCount implements Pop from the index's prefix sums: O(1)
// for the whole population, O(len(indices)) for a shard slice — no
// generation happens.
func (v *View) CandidateCount(indices []int) int {
	if indices == nil {
		return int(v.cands[len(v.cands)-1])
	}
	n := 0
	for _, i := range indices {
		n += int(v.cands[i+1] - v.cands[i])
	}
	return n
}

// V6AddrCount implements Pop in O(1) from the indexing pass.
func (v *View) V6AddrCount() int { return v.stats.TargetsV6 }

// Summarize implements Pop; the statistics were tallied during the
// indexing pass, so this is O(1).
func (v *View) Summarize() Stats { return v.stats }

// EachCandidate visits the DITL-derived candidate targets (live
// resolvers and dead addresses alike; the scanner cannot tell them
// apart, §3.6.2) of the ASes named by indices (nil = all) in
// population order: each live resolver's v4 address, then its v6
// address, then the AS's dead targets.
func EachCandidate(pop Pop, indices []int, fn func(netip.Addr)) {
	pop.EachAS(indices, func(_ int, as *ASSpec) {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			if r.HasV4() {
				fn(r.Addr4)
			}
			if r.HasV6() {
				fn(r.Addr6)
			}
		}
		for _, d := range as.DeadTargets {
			fn(d)
		}
	})
}

// tallyAS folds one AS into population statistics.
//
//doors:scratch as
func tallyAS(s *Stats, as *ASSpec) {
	s.ASes++
	if !as.DSAV {
		s.NoDSAV++
	}
	if len(as.V6Prefixes) > 0 {
		s.V6ASes++
	}
	s.DeadTargets += len(as.DeadTargets)
	for _, t := range as.DeadTargets {
		if t.Is4() {
			s.TargetsV4++
		} else {
			s.TargetsV6++
		}
	}
	for k := 0; k < as.NumResolvers(); k++ {
		r := as.Resolver(k)
		s.LiveResolvers++
		if r.Forward {
			s.Forwarders++
		}
		if r.Scope == ScopeOpen {
			s.OpenResolvers++
		}
		if r.Band == BandZero {
			s.ZeroPort++
		}
		if r.HasV4() {
			s.TargetsV4++
		}
		if r.HasV6() {
			s.TargetsV6++
		}
	}
}
