package campaign

import (
	"net/netip"
	"time"

	"repro/internal/analysis"
	"repro/internal/detrand"
	"repro/internal/routing"
	"repro/internal/scanner"
)

// Salt band 101+ (campaign). Registered in the saltbands registry (see
// DESIGN.md §8 rule 2); every draw a phase makes is keyed on the probed
// target's identity, never on a shared stream.
const (
	saltSAVSubnet = 101 + iota // inbound-SAV: spoofed-source subnet pick
	saltSAVSource              // inbound-SAV: spoofed-source host draw
	saltSAVPhase               // inbound-SAV: probe offset within the window
)

// savSubnetFanout bounds how many subnets per announced prefix the
// inbound-SAV source pick considers (mirrors the reachability scan's
// low-to-high subnet enumeration, §3.2).
const savSubnetFanout = 8

// reachabilityPhase is the §3.2 spoofed reachability scan: the
// scanner's full multi-source probe plan, paced over the campaign
// window with per-target phase offsets.
type reachabilityPhase struct{}

func (reachabilityPhase) Name() string { return PhaseReachability }

func (reachabilityPhase) Count(sh *Shard) int { return sh.Scanner.Count() }

func (reachabilityPhase) Plan(sh *Shard) int { return sh.Scanner.Plan() }

func (reachabilityPhase) Schedule(sh *Shard, window time.Duration) { sh.Scanner.Schedule(window) }

func (reachabilityPhase) Observe(*Shard) {}

func (reachabilityPhase) Reducers() []analysis.Reducer { return analysis.ReachabilityReducers() }

// characterizationPhase is the §3.5 reactive follow-up step. It
// schedules no probes of its own: Observe arms the scanner's FollowUp
// hook, so each target's first timely spoofed hit triggers the
// open-resolver, port-randomization, TCP and forwarding probe set.
type characterizationPhase struct{}

func (characterizationPhase) Name() string { return PhaseCharacterization }

func (characterizationPhase) Count(*Shard) int { return 0 }

func (characterizationPhase) Plan(*Shard) int { return 0 }

func (characterizationPhase) Schedule(*Shard, time.Duration) {}

func (characterizationPhase) Observe(sh *Shard) {
	sh.Scanner.FollowUp = sh.Scanner.ScheduleFollowUps
}

func (characterizationPhase) Reducers() []analysis.Reducer {
	return analysis.CharacterizationReducers()
}

// inboundSAVPhase is the Closed-Resolver-style inbound-SAV scan
// (Korczyński et al.): exactly one spoofed target-internal source per
// target, no reactive follow-ups. It measures the same DSAV question as
// the reachability phase at 1/~100th the probe volume, so the
// reachability reducers consume its hits unchanged while the
// characterization results stay empty.
type inboundSAVPhase struct{}

func (inboundSAVPhase) Name() string { return PhaseInboundSAV }

// Count is one probe per admitted target. Plan skips a target only
// when its AS has no other subnet and all 16 same-subnet draws land on
// the target itself, which the runner's count check turns into an
// error naming the shard.
func (inboundSAVPhase) Count(sh *Shard) int { return len(sh.Scanner.Targets) }

// Plan plans each target's one source on the scanner, every source cut
// from one array.
func (inboundSAVPhase) Plan(sh *Shard) int {
	sc := sh.Scanner
	seed := uint64(sc.Cfg.Seed)
	srcs := make([]netip.Addr, 0, len(sc.Targets))
	return sc.PlanWith(saltSAVPhase, func(t scanner.Target) []netip.Addr {
		src, ok := savSourceFor(sc.Reg, t, seed)
		if !ok {
			return nil
		}
		srcs = append(srcs, src)
		n := len(srcs)
		return srcs[n-1 : n : n]
	})
}

func (inboundSAVPhase) Schedule(sh *Shard, window time.Duration) { sh.Scanner.Schedule(window) }

func (inboundSAVPhase) Observe(*Shard) {}

func (inboundSAVPhase) Reducers() []analysis.Reducer { return analysis.ReachabilityReducers() }

// savSourceFor picks a target's one spoofed source: a random host
// address from another subnet of the target's AS when one exists (the
// category most likely to slip past an address-based ingress check),
// else a same-subnet address distinct from the target. Every draw is
// keyed on the target's identity, so the pick is shard-invariant.
func savSourceFor(reg *routing.Registry, t scanner.Target, seed uint64) (netip.Addr, bool) {
	as := reg.AS(t.ASN)
	if as == nil {
		return netip.Addr{}, false
	}
	var prefixes []netip.Prefix
	if t.Addr.Is6() {
		prefixes = as.V6Prefixes()
	} else {
		prefixes = as.V4Prefixes()
	}
	own := routing.SubnetOf(t.Addr)
	hi, lo := detrand.AddrWords(t.Addr)
	if n, _ := otherSubnet(prefixes, own, -1); n > 0 {
		_, sub := otherSubnet(prefixes, own, detrand.Intn(n, seed, hi, lo, saltSAVSubnet))
		return routing.RandomHostAddr(sub, detrand.Rand(seed, hi, lo, saltSAVSource)), true
	}
	rng := detrand.Rand(seed, hi, lo, saltSAVSource)
	for tries := 0; tries < 16; tries++ {
		if a := routing.RandomHostAddr(own, rng); a != t.Addr {
			return a, true
		}
	}
	return netip.Addr{}, false
}

// otherSubnet walks savSourceFor's candidates, the first
// savSubnetFanout subnets of each prefix other than own, in prefix then
// address order. It returns how many there are and, for 0 <= k < n,
// the k-th of them, so a pick needs no candidate slice.
func otherSubnet(prefixes []netip.Prefix, own netip.Prefix, k int) (n int, kth netip.Prefix) {
	for _, p := range prefixes {
		for j, c := 0, routing.SubnetCount(p, savSubnetFanout); j < c; j++ {
			if sub := routing.SubnetAt(p, j); sub != own {
				if n == k {
					kth = sub
				}
				n++
			}
		}
	}
	return n, kth
}
