package ditl

import (
	"math/rand"
	"net/netip"
	"sort"

	"repro/internal/detrand"
)

// Pop abstracts over the two population representations: the eager
// *Population (every ASSpec materialized) and the streaming *View
// (each AS synthesized on demand, O(1) resident). The campaign engine
// and world builder consume this interface so a survey never needs
// the whole population in memory at once.
type Pop interface {
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
}

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
// index, and candidate-address count; EachAS then advances a stream to
// any AS boundary (detrand.Counted.Skip) and replays genAS from there.
// Resident state is O(ASes) small integers — three prefix-sum columns
// — never the population itself, plus the generator state Marked saves
// at a few chosen ASes.
//
// A View is safe for concurrent EachAS/CandidateCount calls: the
// index columns and marks are frozen once built and each EachAS call
// owns its private stream and scratch.
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
	// marks are saved streams positioned at AS boundaries, in ascending
	// AS order (see Marked); nil on a view from NewView.
	marks []mark
}

// mark is the generator state saved at the boundary before AS as.
type mark struct {
	as int
	cs *detrand.Counted
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
	cs := v.stream()
	rng := cs.Rand()
	as := &ASSpec{}
	used := make(map[netip.Addr]bool)
	resolverIdx := 0
	for i := 0; i < p.ASes; i++ {
		resolverIdx = genAS(p, rng, i, resolverIdx, as, used)
		tallyAS(&v.stats, as)
		v.draws = append(v.draws, cs.Draws())
		v.residx = append(v.residx, int32(resolverIdx))
		v.cands = append(v.cands, int32(v.stats.TargetsV4+v.stats.TargetsV6))
	}
	return v
}

// Marked returns pop ready for sweeps that begin at the ASes in starts
// (ascending indices, such as each shard's first AS). For a *View it
// is a copy sharing the index columns that also saves the generator
// state at each start, placed in one skip-only pass over the draw
// counts (4.9 KB per mark), so its EachAS resumes from the last mark at
// or before an AS instead of skipping a fresh stream from draw 0. Any
// other Pop, such as an eager *Population, comes back unchanged.
func Marked(pop Pop, starts []int) Pop {
	v, ok := pop.(*View)
	if !ok {
		return pop
	}
	m := *v
	m.marks = nil
	cs := v.stream()
	for _, i := range starts {
		if i <= 0 || i >= v.params.ASes || len(m.marks) > 0 && i <= m.marks[len(m.marks)-1].as {
			continue // AS 0 starts the fresh stream; out of range or order needs no mark
		}
		cs.Skip(v.draws[i] - cs.Draws())
		m.marks = append(m.marks, mark{as: i, cs: cs.Clone()})
	}
	return &m
}

// stream returns a fresh generator stream at draw 0.
func (v *View) stream() *detrand.Counted {
	return detrand.NewCounted(uint64(v.params.Seed), saltPopulation)
}

// resume returns the stream to advance to AS i: cs itself when it has
// not passed AS i and no mark lies between it and AS i, else a copy of
// the last mark at or before AS i, else a fresh stream.
func (v *View) resume(cs *detrand.Counted, i int) *detrand.Counted {
	k := sort.Search(len(v.marks), func(k int) bool { return v.marks[k].as > i }) - 1
	if cs != nil && cs.Draws() <= v.draws[i] && (k < 0 || v.draws[v.marks[k].as] <= cs.Draws()) {
		return cs
	}
	if k >= 0 {
		return v.marks[k].cs.Clone()
	}
	return v.stream()
}

// NumASes implements Pop.
func (v *View) NumASes() int { return v.params.ASes }

// EachAS implements Pop by replaying the generator stream across the
// selected ASes. Contiguous ascending indices (the shard slices from
// PartitionIndices) cost one resume plus one generation per AS: the
// resume copies the last mark at or before the first AS and skips the
// rest of the way, which on a view Marked at that AS is no skip at all.
// A backward jump resumes the same way. The *ASSpec handed to fn is
// reused scratch — valid only during the callback.
func (v *View) EachAS(indices []int, fn func(i int, as *ASSpec)) {
	var cs *detrand.Counted
	var rng *rand.Rand
	as := &ASSpec{}
	used := make(map[netip.Addr]bool)
	visit := func(i int) {
		if next := v.resume(cs, i); next != cs {
			cs, rng = next, next.Rand()
		}
		cs.Skip(v.draws[i] - cs.Draws())
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

// Summarize computes population statistics, as Population.Summarize
// does; they were tallied during the indexing pass, so this is O(1).
func (v *View) Summarize() Stats { return v.stats }

// EachCandidate visits the DITL-derived candidate targets (live
// resolvers and dead addresses alike; the scanner cannot tell them
// apart, §3.6.2) of the ASes named by indices (nil = all) in
// population order, each AS's in ASSpec.EachCandidate order.
func EachCandidate(pop Pop, indices []int, fn func(netip.Addr)) {
	pop.EachAS(indices, func(_ int, as *ASSpec) { as.EachCandidate(fn) })
}

// EachCandidate visits the AS's candidate targets: each live
// resolver's v4 address, then its v6 address, then the dead targets.
//
//doors:scratch a
func (a *ASSpec) EachCandidate(fn func(netip.Addr)) {
	for k := 0; k < a.NumResolvers(); k++ {
		r := a.Resolver(k)
		if r.HasV4() {
			fn(r.Addr4)
		}
		if r.HasV6() {
			fn(r.Addr6)
		}
	}
	for _, d := range a.DeadTargets {
		fn(d)
	}
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
