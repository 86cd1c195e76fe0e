package campaign

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
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
// contributes a counting reducer under a (possibly shared) name. Its
// Plan returns one probe more than its Count on shard miscount, when
// miscount is positive.
type fakePhase struct {
	name     string
	reducer  string
	log      *callLog
	runs     *int
	miscount int
}

func (p fakePhase) Name() string { return p.name }

func (p fakePhase) Count(sh *Shard) int {
	p.log.add(p.name, "count", sh.Index)
	return 0
}

func (p fakePhase) Plan(sh *Shard) int {
	p.log.add(p.name, "plan", sh.Index)
	if p.miscount > 0 && sh.Index == p.miscount {
		return 1
	}
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

// engineModes are the runner's output options: keep every world, drop
// each when its shard ends, or also spill the runs.
var engineModes = []struct {
	name         string
	stream, fold bool
}{{"retained", false, false}, {"stream", true, false}, {"fold", false, true}}

// TestRunnerPhaseOrdering pins the phase contract: every phase counts
// before any phase plans (the window derives from the campaign-wide
// probe total), and planning, scheduling and hook arming follow, each in
// phase-list order, in every engine mode.
func TestRunnerPhaseOrdering(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	for _, mode := range engineModes {
		var log callLog
		runs := 0
		c := &Campaign{Name: "fake", Phases: []Phase{
			fakePhase{name: "a", reducer: "ra", log: &log, runs: &runs},
			fakePhase{name: "b", reducer: "rb", log: &log, runs: &runs},
		}}
		cfg := tinyConfig()
		cfg.Campaign, cfg.Stream, cfg.Fold = c, mode.stream, mode.fold
		if _, err := Run(pop, cfg); err != nil {
			t.Fatal(err)
		}
		want := []string{"a.count[0]", "b.count[0]", "a.plan[0]", "b.plan[0]", "a.sched[0]", "b.sched[0]", "a.obs[0]", "b.obs[0]"}
		if fmt.Sprint(log.calls) != fmt.Sprint(want) {
			t.Fatalf("%s: call order = %v, want %v", mode.name, log.calls, want)
		}
		if runs != 2 {
			t.Fatalf("%s: distinct reducers ran %d times, want 2", mode.name, runs)
		}
	}
}

// TestRunnerPlansAllShardsFirst checks the cross-shard ordering at K=3
// without pinning how pass-B workers interleave: every shard counts
// before any shard plans (so no shard's timing can depend on its own
// probe count alone), and each shard then plans exactly once, right
// before it schedules and arms its hooks, in every engine mode.
func TestRunnerPlansAllShardsFirst(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 6})
	const shards = 3
	for _, mode := range engineModes {
		var log callLog
		runs := 0
		c := &Campaign{Name: "fake", Phases: []Phase{
			fakePhase{name: "a", reducer: "ra", log: &log, runs: &runs},
		}}
		cfg := tinyConfig()
		cfg.Shards, cfg.MaxParallel = shards, 2
		cfg.Campaign, cfg.Stream, cfg.Fold = c, mode.stream, mode.fold
		if _, err := Run(pop, cfg); err != nil {
			t.Fatal(err)
		}
		var want []string
		for k := 0; k < shards; k++ {
			want = append(want, fmt.Sprintf("a.count[%d]", k))
		}
		if got := log.calls[:min(shards, len(log.calls))]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: pass A = %v, want every shard's count first: %v", mode.name, got, log.calls)
		}
		for k := 0; k < shards; k++ {
			var got []string
			for _, call := range log.calls[shards:] {
				if strings.HasSuffix(call, fmt.Sprintf("[%d]", k)) {
					got = append(got, call)
				}
			}
			want := []string{fmt.Sprintf("a.plan[%d]", k), fmt.Sprintf("a.sched[%d]", k), fmt.Sprintf("a.obs[%d]", k)}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: shard %d pass B = %v, want %v: %v", mode.name, k, got, want, log.calls)
			}
		}
	}
}

// TestRunnerRejectsMiscountedPlan gives a phase whose Plan returns one
// probe more than its Count on shard 1 and requires every engine mode to
// fail the run with an error naming that shard.
func TestRunnerRejectsMiscountedPlan(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	for _, mode := range engineModes {
		var log callLog
		runs := 0
		cfg := tinyConfig()
		cfg.Shards, cfg.Stream, cfg.Fold = 2, mode.stream, mode.fold
		cfg.Campaign = &Campaign{Name: "fake", Phases: []Phase{
			fakePhase{name: "a", reducer: "ra", log: &log, runs: &runs, miscount: 1},
		}}
		res, err := Run(pop, cfg)
		if res != nil || err == nil || !strings.Contains(err.Error(), "shard 1 planned 1 probes but pass A counted 0") {
			t.Fatalf("%s: result %v, error %v; want the shard-1 count mismatch", mode.name, res, err)
		}
	}
}

// countingPop counts how often each AS is synthesized: every EachAS
// visit of the population it wraps, from any goroutine.
type countingPop struct {
	ditl.Pop
	visits []atomic.Int32
}

func (p *countingPop) EachAS(indices []int, fn func(i int, as *ditl.ASSpec)) {
	p.Pop.EachAS(indices, func(i int, as *ditl.ASSpec) {
		p.visits[i].Add(1)
		fn(i, as)
	})
}

// TestRunSynthesizesEachASThreeTimes pins the runner's sweep budget:
// every AS is synthesized exactly three times per Run — the setup sweep
// (registry, geo database, IPv6 hit list), pass A's admission, and pass
// B's world build with its admission — for both built-in campaigns, in
// every engine mode, at K=1, 2 and 8. The fold reduce replays none.
func TestRunSynthesizesEachASThreeTimes(t *testing.T) {
	view := ditl.NewView(ditl.Params{Seed: 3, ASes: 12})
	for _, c := range []*Campaign{NewSurvey(), NewInboundSAV()} {
		for _, mode := range engineModes {
			for _, k := range []int{1, 2, 8} {
				pop := &countingPop{Pop: view, visits: make([]atomic.Int32, view.NumASes())}
				cfg := tinyConfig()
				cfg.Campaign, cfg.Shards, cfg.MaxParallel = c, k, 2
				cfg.Stream, cfg.Fold = mode.stream, mode.fold
				if _, err := Run(pop, cfg); err != nil {
					t.Fatal(err)
				}
				for i := range pop.visits {
					if n := pop.visits[i].Load(); n != 3 {
						t.Fatalf("%s, %s, K=%d: AS %d synthesized %d times, want 3", c.Name, mode.name, k, i, n)
					}
				}
			}
		}
	}
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
	ditl.EachCandidate(pop, nil, func(a netip.Addr) {
		as := reg.OriginOf(a)
		if as == nil {
			return
		}
		tgt := scanner.Target{Addr: a, ASN: as.ASN}
		src, ok := savSourceFor(reg, tgt, 2)
		want, wantOK, fallback := savSourceForSlice(reg, tgt, 2)
		if src != want || ok != wantOK {
			t.Fatalf("source for %v = %v, %v; the candidate slice picks %v, %v", a, src, ok, want, wantOK)
		}
		if !ok {
			return
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
	})
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

// TestCountMatchesPlan pins pass A's contract for every built-in phase:
// Count on a world-less planner equals the total Plan returns, shard by
// shard at K=1, 2 and 8, under the default cap of 97 other-prefix
// sources and caps of 1 and 3. The population's IPv6 targets draw from
// its hit list; the last case is an AS whose prefixes nest, with
// hit-list entries outside it and of the other family.
func TestCountMatchesPlan(t *testing.T) {
	phases := []Phase{reachabilityPhase{}, characterizationPhase{}, inboundSAVPhase{}}
	check := func(name string, sh *Shard) int {
		t.Helper()
		v6 := 0
		for _, tgt := range sh.Scanner.Targets {
			if tgt.Addr.Is6() {
				v6++
			}
		}
		for _, ph := range phases {
			if n, planned := ph.Count(sh), ph.Plan(sh); n != planned {
				t.Fatalf("%s, shard %d, phase %s: Count %d, Plan %d", name, sh.Index, ph.Name(), n, planned)
			}
		}
		return v6
	}

	pop := ditl.Generate(ditl.Params{Seed: 3, ASes: 60})
	reg, err := world.BuildRegistry(pop, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hl := V6HitList(pop)
	for _, maxOther := range []int{0, 1, 3} {
		cfg := scanner.Config{Seed: 5, MaxOtherPrefix: maxOther, V6HitList: hl}
		for _, k := range []int{1, 2, 8} {
			v6 := 0
			for i, indices := range ditl.PartitionIndices(pop.NumASes(), k) {
				sc := scanner.NewPlanner(reg, cfg)
				admit(sc, pop, indices)
				v6 += check(fmt.Sprintf("MaxOtherPrefix %d, K=%d", maxOther, k), &Shard{Index: i, Scanner: sc})
			}
			if v6 == 0 {
				t.Fatalf("MaxOtherPrefix %d, K=%d: no IPv6 targets", maxOther, k)
			}
		}
	}

	nested := routing.NewRegistry()
	if err := nested.Add(&routing.AS{ASN: 64500, Prefixes: []netip.Prefix{
		netip.MustParsePrefix("2a00:5:0:8000::/49"), netip.MustParsePrefix("2a00:5::/48"), netip.MustParsePrefix("5.1.0.0/22"),
	}}); err != nil {
		t.Fatal(err)
	}
	nestedHL := map[netip.Prefix]bool{}
	for _, p := range []string{"2a00:5:0:9000::/64", "2a00:5:0:1234::/64", "2a00:5::/64", "2a00:6::/64", "5.1.0.0/24"} {
		nestedHL[netip.MustParsePrefix(p)] = true
	}
	for _, maxOther := range []int{0, 1, 3} {
		sc := scanner.NewPlanner(nested, scanner.Config{Seed: 2, MaxOtherPrefix: maxOther, V6HitList: nestedHL})
		for _, a := range []string{"2a00:5::53", "2a00:5:0:9000::1", "5.1.1.7"} {
			sc.AdmitOne(netip.MustParseAddr(a))
		}
		check(fmt.Sprintf("nested prefixes, MaxOtherPrefix %d", maxOther), &Shard{Scanner: sc})
	}
}
