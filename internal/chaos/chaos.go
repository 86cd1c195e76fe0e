// Package chaos is the simulator's deterministic fault-injection layer:
// link flaps, packet duplication, reordering and corruption, resolver
// crash-and-restart, and per-AS clock skew. A crashed resolver loses
// its cache and its in-flight queries.
//
// Every fault decision is derived with internal/detrand causal-identity
// hashing from the experiment seed plus the identity of the thing being
// faulted — a packet's pre-transit bytes (folded once by netsim) and
// send time, an AS number, a resolver's address — never from a shared
// sequential stream. A fault schedule is therefore bit-reproducible at
// every shard count, extending the sharded survey engine's determinism
// guarantee to adverse-network runs: the same seed produces the same
// flaps, the same duplicated packets, and the same crashes whether the
// population runs in one shard or sixteen.
//
// Faults that could reorder packets within a flow (duplication, reorder
// delay, corruption) are applied to UDP only: the simulator's minimal
// TCP relies on same-flow FIFO delivery, which the real faults it would
// face (retransmission, sequencing) are exactly what that minimal stack
// does not model. Link flaps drop everything, and clock skew is a
// constant per destination AS, so both apply to all traffic without
// breaking flow FIFO.
package chaos

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/detrand"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

// Domain-separation salts (band 41+; the saltbands analyzer in
// internal/lint registers every `salt* = N + iota` block and rejects
// overlaps between packages).
const (
	saltFlapSel = 41 + iota
	saltFlapAt
	saltSkew
	saltDup
	saltDupDelay
	saltReorder
	saltReorderBy
	saltCorrupt
	saltCorruptBit
	saltCrashSel
	saltCrashAt
)

// Config parameterizes the fault schedule. The zero value disables all
// faults; Default returns the standard adverse-network mix.
type Config struct {
	// Enabled turns the layer on. When false, every draw is skipped.
	Enabled bool
	// Seed keys all fault draws (independent of the survey seed so the
	// same topology can be replayed under different fault schedules).
	Seed uint64

	// FlapRate is the fraction of eligible ASes whose border link flaps.
	FlapRate float64
	// FlapCount is the number of outages per flapping AS.
	FlapCount int
	// FlapDuration is the length of each outage; all traffic into or out
	// of the AS is dropped while a flap is active.
	FlapDuration time.Duration

	// DupProb duplicates a UDP packet (second copy DupDelay later).
	DupProb  float64
	DupDelay time.Duration
	// ReorderProb delays a UDP packet by up to ReorderMax, reordering it
	// against later traffic from other flows.
	ReorderProb float64
	ReorderMax  time.Duration
	// CorruptProb flips one bit of a UDP packet in transit; receivers
	// reject the damage on the transport checksum.
	CorruptProb float64

	// CrashRate is the fraction of eligible resolvers that crash once
	// during the campaign, losing their in-flight queries and their
	// cache.
	CrashRate float64
	// OutageDuration is how long a crashed resolver's host stays down
	// before the restart comes back up.
	OutageDuration time.Duration

	// SkewMax bounds the constant per-AS clock skew, modelled as extra
	// one-way delay into the AS (its clock lags the simulation's).
	SkewMax time.Duration
}

// Default returns the standard adverse-network fault mix used by the
// -chaos flag.
func Default(seed uint64) Config {
	return Config{
		Enabled:        true,
		Seed:           seed,
		FlapRate:       0.2,
		FlapCount:      2,
		FlapDuration:   2 * time.Second,
		DupProb:        0.02,
		DupDelay:       30 * time.Millisecond,
		ReorderProb:    0.05,
		ReorderMax:     100 * time.Millisecond,
		CorruptProb:    0.01,
		CrashRate:      0.15,
		OutageDuration: 2 * time.Second,
		SkewMax:        40 * time.Millisecond,
	}
}

// Validate rejects an enabled schedule whose values the injector would
// silently misread, naming the offending field: a probability outside
// [0, 1] or NaN (a NaN CrashRate crashes every eligible resolver), a
// negative flap count, or a negative duration (a negative
// OutageDuration makes every crash permanent). A disabled Config is
// always valid: none of its other fields is read.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FlapRate", c.FlapRate}, {"DupProb", c.DupProb}, {"ReorderProb", c.ReorderProb},
		{"CorruptProb", c.CorruptProb}, {"CrashRate", c.CrashRate},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("%s = %v; want a probability in [0, 1]", f.name, f.v)
		}
	}
	if c.FlapCount < 0 {
		return fmt.Errorf("FlapCount = %d; want a non-negative count", c.FlapCount)
	}
	for _, f := range []struct {
		name string
		v    time.Duration
	}{
		{"FlapDuration", c.FlapDuration}, {"DupDelay", c.DupDelay}, {"ReorderMax", c.ReorderMax},
		{"OutageDuration", c.OutageDuration}, {"SkewMax", c.SkewMax},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s = %v; want a non-negative duration", f.name, f.v)
		}
	}
	return nil
}

// Injector evaluates a Config's fault schedule. It holds no mutable
// state after setup, so one Injector is safely shared (read-only) by
// every shard's network.
type Injector struct {
	cfg    Config
	window time.Duration
	reg    *routing.Registry // its Infra ASes are exempt; nil exempts none
}

// NewInjector returns an injector for cfg.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg}
}

// Config returns the injector's configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// SetWindow sets the campaign window faults are scheduled within. It
// must be the survey-wide campaign duration (identical at every shard
// count), not any per-shard duration, or flap and crash times would
// depend on sharding.
func (inj *Injector) SetWindow(d time.Duration) { inj.window = d }

// SetEligibleRegistry restricts faults to non-infrastructure ASes as
// recorded on the registry (AS.Infra), the single source of truth for
// the experiment's control-plane ASNs (scanner, roots, public DNS):
// chaos is meant to stress measured paths, not sever the experiment's
// control plane. The registry is frozen after construction, so every
// shard may read it.
func (inj *Injector) SetEligibleRegistry(reg *routing.Registry) { inj.reg = reg }

func (inj *Injector) isEligible(asn routing.ASN) bool {
	return inj.reg == nil || !inj.reg.InfraAS(asn)
}

// FlapActive reports whether asn's border link is down at virtual time
// now. Flap selection and outage start times hash the ASN, so the
// schedule is identical in whichever shard the AS lands.
func (inj *Injector) FlapActive(asn routing.ASN, now time.Duration) bool {
	c := inj.cfg
	if !c.Enabled || c.FlapRate <= 0 || c.FlapCount <= 0 || inj.window <= 0 {
		return false
	}
	if !inj.isEligible(asn) {
		return false
	}
	if detrand.Float64(c.Seed, uint64(asn), saltFlapSel) >= c.FlapRate {
		return false
	}
	for i := 0; i < c.FlapCount; i++ {
		start := time.Duration(detrand.Mix(c.Seed, uint64(asn), uint64(i), saltFlapAt) % uint64(inj.window))
		if now >= start && now < start+c.FlapDuration {
			return true
		}
	}
	return false
}

// Skew returns asn's constant clock skew (extra one-way delay into the
// AS). Constant per AS, so same-flow FIFO is preserved.
func (inj *Injector) Skew(asn routing.ASN) time.Duration {
	c := inj.cfg
	if !c.Enabled || c.SkewMax <= 0 || !inj.isEligible(asn) {
		return 0
	}
	return time.Duration(detrand.Mix(c.Seed, uint64(asn), saltSkew) % uint64(c.SkewMax))
}

// CrashTime returns the virtual time at which the resolver at addr
// crashes, if the schedule selects it. Keyed on the resolver's address:
// the same resolvers crash at the same times at any shard count.
func (inj *Injector) CrashTime(addr netip.Addr) (time.Duration, bool) {
	c := inj.cfg
	if !c.Enabled || c.CrashRate <= 0 || inj.window <= 0 {
		return 0, false
	}
	hi, lo := detrand.AddrWords(addr)
	if detrand.Float64(c.Seed, hi, lo, saltCrashSel) >= c.CrashRate {
		return 0, false
	}
	return time.Duration(detrand.Mix(c.Seed, hi, lo, saltCrashAt) % uint64(inj.window)), true
}

// Transit is the netsim.FaultHook: the per-packet fault verdict. The
// draw key mixes the schedule's seed into fold, netsim's one fold of the
// packet's pre-transit bytes (detrand.HashBytes(seed, bytes) without a
// second pass over them), and the send time, so a retransmission of
// identical bytes at a different time gets a fresh draw, and no verdict
// depends on event interleaving.
func (inj *Injector) Transit(now time.Duration, fold uint64, pkt *packet.Packet, srcAS, dstAS *routing.AS) netsim.TransitFault {
	c := inj.cfg
	if !c.Enabled {
		return netsim.TransitFault{}
	}

	// Link flap severs everything crossing the flapped border.
	if srcAS != nil && inj.FlapActive(srcAS.ASN, now) {
		return netsim.TransitFault{Drop: true}
	}
	if dstAS != nil && inj.FlapActive(dstAS.ASN, now) {
		return netsim.TransitFault{Drop: true}
	}

	var fault netsim.TransitFault
	if dstAS != nil {
		fault.ExtraDelay = inj.Skew(dstAS.ASN)
	}

	// Per-packet faults are UDP-only (see package comment).
	if pkt.UDP == nil {
		return fault
	}
	eligible := (srcAS != nil && inj.isEligible(srcAS.ASN)) ||
		(dstAS != nil && inj.isEligible(dstAS.ASN))
	if !eligible {
		return fault
	}
	key := detrand.Mix(c.Seed, detrand.Mix(c.Seed, fold), uint64(now))

	if c.ReorderProb > 0 && c.ReorderMax > 0 &&
		detrand.Float64(key, saltReorder) < c.ReorderProb {
		fault.ExtraDelay += time.Duration(detrand.Mix(key, saltReorderBy) % uint64(c.ReorderMax))
	}
	if c.DupProb > 0 && detrand.Float64(key, saltDup) < c.DupProb {
		fault.Duplicate = true
		fault.DupDelay = time.Duration(1 + detrand.Mix(key, saltDupDelay)%uint64(c.DupDelay+1))
	}
	if c.CorruptProb > 0 && detrand.Float64(key, saltCorrupt) < c.CorruptProb {
		fault.Corrupt = true
		fault.CorruptBit = int(detrand.Mix(key, saltCorruptBit) >> 1)
	}
	return fault
}
