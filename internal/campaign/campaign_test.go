package campaign

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/detrand"
	"repro/internal/ditl"
	"repro/internal/routing"
	"repro/internal/scanner"
	"repro/internal/world"
)

// callLog is the runner's call record, appended to from pass-B workers.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(phase, call string, shard int) {
	l.mu.Lock()
	l.calls = append(l.calls, fmt.Sprintf("%s.%s[%d]", phase, call, shard))
	l.mu.Unlock()
}

// fakePhase records the runner's calls into a shared log and
// contributes a counting reducer under a (possibly shared) name.
type fakePhase struct {
	name    string
	reducer string
	log     *callLog
	runs    *int
}

func (p fakePhase) Name() string { return p.name }

func (p fakePhase) Plan(sh *Shard) int {
	p.log.add(p.name, "plan", sh.Index)
	return 0
}

func (p fakePhase) Schedule(sh *Shard, _ time.Duration) {
	p.log.add(p.name, "sched", sh.Index)
}

func (p fakePhase) Observe(sh *Shard) {
	p.log.add(p.name, "obs", sh.Index)
}

func (p fakePhase) Reducers() []analysis.Reducer {
	return []analysis.Reducer{{Name: p.reducer, Reduce: func(*analysis.Context, *analysis.Report) { *p.runs++ }}}
}

func tinyConfig() Config {
	return Config{Scanner: scanner.Config{Seed: 2, Rate: 10000}}
}

// TestRunnerPhaseOrdering pins the phase contract: every phase plans on
// every shard before any phase schedules (the window derives from the
// campaign-wide probe total), and scheduling precedes hook arming, both
// in phase-list order.
func TestRunnerPhaseOrdering(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	var log callLog
	runs := 0
	c := &Campaign{Name: "fake", Phases: []Phase{
		fakePhase{name: "a", reducer: "ra", log: &log, runs: &runs},
		fakePhase{name: "b", reducer: "rb", log: &log, runs: &runs},
	}}
	cfg := tinyConfig()
	cfg.Campaign = c
	if _, err := Run(pop, cfg); err != nil {
		t.Fatal(err)
	}
	want := []string{"a.plan[0]", "b.plan[0]", "a.sched[0]", "b.sched[0]", "a.obs[0]", "b.obs[0]"}
	if fmt.Sprint(log.calls) != fmt.Sprint(want) {
		t.Fatalf("call order = %v, want %v", log.calls, want)
	}
	if runs != 2 {
		t.Fatalf("distinct reducers ran %d times, want 2", runs)
	}
}

// TestRunnerPlansAllShardsFirst checks the cross-shard ordering at K=2
// without pinning how pass-B workers interleave: every shard plans
// before any shard schedules (so no shard's timing can depend on its
// own probe count alone), and within a shard scheduling precedes hook
// arming. A retained run plans each shard once; a Stream run plans it
// again on its pass-B worker, after every pass-A plan.
func TestRunnerPlansAllShardsFirst(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	for _, tc := range []struct {
		stream bool
		plans  int
	}{{false, 1}, {true, 2}} {
		var log callLog
		runs := 0
		c := &Campaign{Name: "fake", Phases: []Phase{
			fakePhase{name: "a", reducer: "ra", log: &log, runs: &runs},
		}}
		cfg := tinyConfig()
		cfg.Shards = 2
		cfg.Stream = tc.stream
		cfg.Campaign = c
		if _, err := Run(pop, cfg); err != nil {
			t.Fatal(err)
		}
		firstSched := len(log.calls)
		for i, call := range log.calls {
			if strings.Contains(call, ".sched[") {
				firstSched = i
				break
			}
		}
		for k := 0; k < 2; k++ {
			plan, sched, obs := fmt.Sprintf("a.plan[%d]", k), fmt.Sprintf("a.sched[%d]", k), fmt.Sprintf("a.obs[%d]", k)
			planAt := slices.Index(log.calls, plan)
			if planAt < 0 || planAt > firstSched {
				t.Fatalf("stream=%v: shard %d first plans at %d, after the first schedule at %d: %v", tc.stream, k, planAt, firstSched, log.calls)
			}
			if n := count(log.calls, plan); n != tc.plans {
				t.Fatalf("stream=%v: shard %d planned %d times, want %d: %v", tc.stream, k, n, tc.plans, log.calls)
			}
			schedAt, obsAt := slices.Index(log.calls, sched), slices.Index(log.calls, obs)
			if schedAt < 0 || obsAt < schedAt || slices.Index(log.calls[schedAt:], plan) >= 0 {
				t.Fatalf("stream=%v: shard %d: want every plan, then sched, then obs: %v", tc.stream, k, log.calls)
			}
		}
	}
}

func count(calls []string, call string) int {
	n := 0
	for _, c := range calls {
		if c == call {
			n++
		}
	}
	return n
}

// TestReduceMergeDeduplicates pins the reduce-merge rule: phases
// sharing a reducer name run it exactly once — reducers accumulate
// into Report counters, so a duplicate run would double-count.
func TestReduceMergeDeduplicates(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	var log callLog
	runs := 0
	c := &Campaign{Name: "fake", Phases: []Phase{
		fakePhase{name: "a", reducer: "shared", log: &log, runs: &runs},
		fakePhase{name: "b", reducer: "shared", log: &log, runs: &runs},
	}}
	cfg := tinyConfig()
	cfg.Campaign = c
	if _, err := Run(pop, cfg); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("shared reducer ran %d times, want exactly 1", runs)
	}
}

func TestByName(t *testing.T) {
	for name, phases := range map[string][]string{
		"":            {PhaseReachability, PhaseCharacterization},
		"survey":      {PhaseReachability, PhaseCharacterization},
		"inbound-sav": {PhaseInboundSAV},
	} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if len(c.Phases) != len(phases) {
			t.Fatalf("ByName(%q): %d phases, want %d", name, len(c.Phases), len(phases))
		}
		for i, ph := range c.Phases {
			if ph.Name() != phases[i] {
				t.Fatalf("ByName(%q) phase %d = %q, want %q", name, i, ph.Name(), phases[i])
			}
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestNewFromPhases(t *testing.T) {
	c, err := NewFromPhases([]string{PhaseInboundSAV, PhaseCharacterization})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Phases) != 2 || c.Phases[0].Name() != PhaseInboundSAV {
		t.Fatalf("phases = %v", c.Phases)
	}
	if _, err := NewFromPhases(nil); err == nil {
		t.Fatal("empty phase list succeeded")
	}
	if _, err := NewFromPhases([]string{"nope"}); err == nil {
		t.Fatal("unknown phase succeeded")
	}
}

// savSourceForSlice is savSourceFor written with a candidate slice:
// list every other subnet, then index it with the same draw. fallback
// reports that the list was empty and the same-subnet pick ran.
func savSourceForSlice(reg *routing.Registry, t scanner.Target, seed uint64) (src netip.Addr, ok, fallback bool) {
	as := reg.AS(t.ASN)
	if as == nil {
		return netip.Addr{}, false, false
	}
	prefixes := as.V4Prefixes()
	if t.Addr.Is6() {
		prefixes = as.V6Prefixes()
	}
	own := routing.SubnetOf(t.Addr)
	var candidates []netip.Prefix
	for _, p := range prefixes {
		for j := 0; j < routing.SubnetCount(p, savSubnetFanout); j++ {
			if sub := routing.SubnetAt(p, j); sub != own {
				candidates = append(candidates, sub)
			}
		}
	}
	hi, lo := detrand.AddrWords(t.Addr)
	if len(candidates) > 0 {
		sub := candidates[detrand.Intn(len(candidates), seed, hi, lo, saltSAVSubnet)]
		return routing.RandomHostAddr(sub, detrand.Rand(seed, hi, lo, saltSAVSource)), true, false
	}
	rng := detrand.Rand(seed, hi, lo, saltSAVSource)
	for tries := 0; tries < 16; tries++ {
		if a := routing.RandomHostAddr(own, rng); a != t.Addr {
			return a, true, true
		}
	}
	return netip.Addr{}, false, true
}

// TestSAVSourceIsInternal checks the inbound-SAV source pick: always an
// address of the target's own AS, never the target itself, stable
// across calls (causal identity, no shared stream), and for every
// target equal to the candidate-slice pick, IPv6 targets and
// single-/24 ASes (the same-subnet fallback) included.
func TestSAVSourceIsInternal(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 3, ASes: 300})
	reg, err := world.BuildRegistry(pop, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checked, v6, fallbacks := 0, 0, 0
	for _, a := range CandidateAddrs(pop, nil) {
		as := reg.OriginOf(a)
		if as == nil {
			continue
		}
		tgt := scanner.Target{Addr: a, ASN: as.ASN}
		src, ok := savSourceFor(reg, tgt, 2)
		want, wantOK, fallback := savSourceForSlice(reg, tgt, 2)
		if src != want || ok != wantOK {
			t.Fatalf("source for %v = %v, %v; the candidate slice picks %v, %v", a, src, ok, want, wantOK)
		}
		if !ok {
			continue
		}
		if a.Is6() {
			v6++
		}
		if fallback {
			fallbacks++
		}
		if src == a {
			t.Fatalf("source for %v is the target itself", a)
		}
		if !as.Originates(src) {
			t.Fatalf("source %v for target %v is outside AS %v", src, a, as.ASN)
		}
		if again, _ := savSourceFor(reg, tgt, 2); again != src {
			t.Fatalf("source pick for %v not stable: %v then %v", a, src, again)
		}
		checked++
	}
	t.Logf("checked %d targets: %d IPv6, %d same-subnet fallbacks", checked, v6, fallbacks)
	if checked == 0 || v6 == 0 || fallbacks == 0 {
		t.Fatalf("checked %d targets, %d IPv6 and %d same-subnet fallbacks; want some of each", checked, v6, fallbacks)
	}
}

// TestInboundSAVPlanState sanity-checks Plan: one probe per admitted
// target (every admitted target is routed, so a source always exists).
func TestInboundSAVPlanState(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 3, ASes: 4})
	cfg := tinyConfig()
	cfg.Campaign = NewInboundSAV()
	res, err := Run(pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 {
		t.Fatal("planned no probes")
	}
	if got := int(res.Scanner.Stats.TargetsAdmitted); res.Probes != got {
		t.Fatalf("planned %d probes for %d targets", res.Probes, got)
	}
	if res.Scanner.Stats.ProbesSent == 0 {
		t.Fatal("sent no probes")
	}
}
