package doors

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/ditl"
	"repro/internal/scanner"
	"repro/internal/world"
)

func worldOptsAllDSAV() world.Options { return world.Options{AllDSAV: true} }

// TestSmallSurveyEndToEnd runs the full pipeline on a small world and
// checks the paper's qualitative shapes.
func TestSmallSurveyEndToEnd(t *testing.T) {
	s, err := RunSurvey(SurveyConfig{
		Population: ditl.Params{Seed: 42, ASes: 120},
		Scanner:    scanner.Config{Seed: 43, Rate: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Report

	if s.Probes == 0 || s.Scanner.Stats.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	if r.V4.Targets == 0 {
		t.Fatal("no v4 targets admitted")
	}
	if r.V4.ReachableAddrs == 0 {
		t.Fatalf("no reachable v4 addresses (hits=%d)", len(s.Scanner.Hits))
	}

	// Headline shapes (§4): AS-level reachability near half; IP-level in
	// the single-digit-percent range.
	asFrac := r.V4.ASFraction()
	if asFrac < 0.25 || asFrac > 0.65 {
		t.Errorf("v4 reachable-AS fraction = %.2f, want ≈0.49", asFrac)
	}
	ipFrac := r.V4.AddrFraction()
	if ipFrac < 0.01 || ipFrac > 0.15 {
		t.Errorf("v4 reachable-IP fraction = %.3f, want ≈0.046", ipFrac)
	}

	// DSAV must hold: no timely internal-source hit may target a
	// DSAV-protected AS. (Private/loopback sources are not covered by
	// DSAV itself — they are the bogon filter's job.)
	dsav := make(map[uint32]bool)
	s.Population.EachAS(nil, func(_ int, as *ditl.ASSpec) {
		if as.DSAV {
			dsav[uint32(as.ASN)] = true
		}
	})
	scannerAddrs := []netip.Addr{s.World.ScannerAddr4, s.World.ScannerAddr6}
	for _, h := range s.Scanner.Hits {
		if h.Lifetime > 10*time.Second || !dsav[uint32(h.ASN)] {
			continue
		}
		switch scanner.Categorize(h.Src, h.Dst, scannerAddrs) {
		case scanner.CatOtherPrefix, scanner.CatSamePrefix, scanner.CatDstAsSrc:
			t.Fatalf("timely internal-source hit in DSAV AS %d (dst %v src %v)", h.ASN, h.Dst, h.Src)
		}
	}

	// Open/closed (§5.1): both classes present; closed resolvers are the
	// larger class among direct responders.
	if r.OpenClosed.Open == 0 || r.OpenClosed.Closed == 0 {
		t.Errorf("open/closed degenerate: %+v", r.OpenClosed)
	}

	// Table 3 shape: other-prefix dominates v4 inclusive reach.
	var other, same int
	for _, row := range r.Table3.V4 {
		switch row.Category {
		case scanner.CatOtherPrefix:
			other = row.InclusiveAddrs
		case scanner.CatSamePrefix:
			same = row.InclusiveAddrs
		}
	}
	if other == 0 || same == 0 {
		t.Errorf("Table 3 degenerate: other=%d same=%d", other, same)
	}

	// Forwarding (§5.4): both direct and forwarded resolvers observed.
	if r.Forwarding.V4Direct == 0 || r.Forwarding.V4Forwarded == 0 {
		t.Errorf("forwarding degenerate: %+v", r.Forwarding)
	}

	// Port analysis: samples collected, most in the wide bands.
	if len(r.Ports.Samples) == 0 {
		t.Fatal("no port samples")
	}
}

// TestSurveyDeterministic ensures the full pipeline is reproducible.
func TestSurveyDeterministic(t *testing.T) {
	run := func() (int, int, uint64) {
		s, err := RunSurvey(SurveyConfig{
			Population: ditl.Params{Seed: 7, ASes: 40},
			Scanner:    scanner.Config{Seed: 8, Rate: 5000},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Report.V4.ReachableAddrs, len(s.Scanner.Hits), s.Scanner.Stats.ProbesSent
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("survey not deterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

// TestAllDSAVCounterfactual checks the ablation against what DSAV
// guarantees. A DSAV border drops every inbound packet whose source
// the destination AS originates, so with DSAV everywhere a timely main
// probe hit can only come from a private or loopback source, or from
// the scanner's own address (the open-resolver follow-up). Late hits
// from internal sources do occur: the IDS analyst re-resolves names
// dropped at a DSAV border, and the Report's lifetime threshold
// excludes those hits.
func TestAllDSAVCounterfactual(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 9, ASes: 120})
	sc := scanner.Config{Seed: 10, Rate: 5000}
	base, err := RunSurveyOn(pop, SurveyConfig{Scanner: sc})
	if err != nil {
		t.Fatal(err)
	}
	protected, err := RunSurveyOn(pop, SurveyConfig{World: worldOptsAllDSAV(), Scanner: sc})
	if err != nil {
		t.Fatal(err)
	}
	if base.Report.V4.ReachableAddrs == 0 {
		t.Fatal("baseline survey reached nothing")
	}
	if protected.Report.V4.ReachableAddrs >= base.Report.V4.ReachableAddrs/2 {
		t.Fatalf("DSAV-everywhere still reaches %d of %d addresses",
			protected.Report.V4.ReachableAddrs, base.Report.V4.ReachableAddrs)
	}

	const threshold = 10 * time.Second // the Report's default lifetime threshold
	own := []netip.Addr{protected.Scanner.Addr4, protected.Scanner.Addr6}
	timely := 0
	for _, h := range protected.Scanner.Hits {
		if h.Kind != scanner.ProbeMain || h.Lifetime > threshold {
			continue
		}
		timely++
		switch cat := scanner.Categorize(h.Src, h.Dst, own); cat {
		case scanner.CatPrivate, scanner.CatLoopback, scanner.CatNotSpoofed:
		default:
			t.Errorf("timely %s hit through DSAV: %v -> %v (lifetime %v)", cat, h.Src, h.Dst, h.Lifetime)
		}
	}
	if timely == 0 {
		t.Fatal("no timely hits under AllDSAV: the source check ran on nothing")
	}
}

// TestOptOutSuppressesProbing verifies the §3.8 flow: after an operator
// opts out, no further probes target their address space, and their AS
// produces no observations.
func TestOptOutSuppressesProbing(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 13, ASes: 60})
	w, err := world.Build(pop, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanner.New(w.Scanner, w.ScannerAddr4, w.ScannerAddr6, w.Reg, w.Auth,
		scanner.Config{Seed: 14, Rate: 10000})
	if err != nil {
		t.Fatal(err)
	}
	ditl.EachCandidate(pop, nil, sc.AdmitOne)

	// The operator of the first no-DSAV AS requests removal mid-setup.
	var optedOut *ditl.ASSpec
	for _, as := range pop.ASes {
		if !as.DSAV {
			optedOut = as
			break
		}
	}
	if optedOut == nil {
		t.Fatal("no no-DSAV AS in population")
	}
	for _, p := range optedOut.Prefixes() {
		sc.OptOut(p)
	}
	sc.ScheduleAll()
	w.Net.Run()

	for _, h := range sc.Hits {
		if h.ASN == optedOut.ASN {
			t.Fatalf("hit observed for opted-out %v: %+v", optedOut.ASN, h)
		}
	}
	if len(sc.Hits) == 0 {
		t.Fatal("opt-out of one AS silenced the whole survey")
	}
}

// TestMethodologyValidation scores the survey's inferences against the
// simulation's ground truth: DSAV detection must be high-recall and
// high-precision; open/closed and OS attributions must be accurate.
func TestMethodologyValidation(t *testing.T) {
	s, err := RunSurvey(SurveyConfig{
		Population: ditl.Params{Seed: 21, ASes: 300},
		Scanner:    scanner.Config{Seed: 22, Rate: 20000},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := analysis.Validate(s.Report, s.Population)

	if v.DSAVRecall() < 0.80 {
		t.Errorf("DSAV recall = %.2f (found %d of %d vulnerable ASes)",
			v.DSAVRecall(), v.TruePositiveASes, v.NoDSAVASes)
	}
	if v.DSAVPrecision() < 0.90 {
		t.Errorf("DSAV precision = %.2f (%d false positives)",
			v.DSAVPrecision(), v.FalsePositiveASes)
	}
	if v.OpenChecked == 0 || float64(v.OpenCorrect)/float64(v.OpenChecked) < 0.95 {
		t.Errorf("open/closed accuracy = %d/%d", v.OpenCorrect, v.OpenChecked)
	}
	if v.BandChecked == 0 || float64(v.BandCorrect)/float64(v.BandChecked) < 0.85 {
		t.Errorf("band OS attribution accuracy = %d/%d", v.BandCorrect, v.BandChecked)
	}
	if v.P0fLabeled == 0 || float64(v.P0fCorrect)/float64(v.P0fLabeled) < 0.95 {
		t.Errorf("p0f precision = %d/%d", v.P0fCorrect, v.P0fLabeled)
	}
}

// TestFollowUpsFireOncePerTarget checks the §3.5 protocol: exactly one
// follow-up set per reached target, regardless of how many spoofed
// sources worked.
func TestFollowUpsFireOncePerTarget(t *testing.T) {
	s, err := RunSurvey(SurveyConfig{
		Population: ditl.Params{Seed: 33, ASes: 80},
		Scanner:    scanner.Config{Seed: 34, Rate: 10000},
	})
	if err != nil {
		t.Fatal(err)
	}
	reached := s.Report.V4.ReachableAddrs + s.Report.V6.ReachableAddrs
	sets := int(s.Scanner.Stats.FollowUpSetsSent)
	if sets == 0 {
		t.Fatal("no follow-up sets sent")
	}
	// Follow-up sets can slightly exceed the final reachable count
	// (late-filtered or qmin-partial targets still trigger one), but
	// never by much, and never more than one per target.
	if sets < reached {
		t.Fatalf("follow-up sets %d < reachable targets %d", sets, reached)
	}
	if sets > reached+reached/5+10 {
		t.Fatalf("follow-up sets %d for %d reachable targets: duplicates?", sets, reached)
	}
	// Per-target query budget (§3.7): at most 10+10+2 follow-up queries.
	maxQ := uint64(sets) * 22
	if s.Scanner.Stats.FollowUpQueries > maxQ {
		t.Fatalf("follow-up queries %d exceed %d", s.Scanner.Stats.FollowUpQueries, maxQ)
	}
}

// TestWildcardSurveyRecoversQminVisibility runs the §3.6.4 fix at the
// doors level.
func TestWildcardSurveyRecoversQminVisibility(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 35, ASes: 250, QnameMinFraction: 0.15})
	base, err := RunSurveyOn(pop, SurveyConfig{
		Scanner: scanner.Config{Seed: 36, Rate: 20000},
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := RunSurveyOn(pop, SurveyConfig{
		World:   world.Options{Wildcard: true},
		Scanner: scanner.Config{Seed: 36, Rate: 20000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Report.Qmin.NeverFull == 0 {
		t.Skip("no strict qmin resolvers reached in this seed")
	}
	if fixed.Report.Qmin.NeverFull >= base.Report.Qmin.NeverFull {
		t.Fatalf("wildcard fix did not reduce never-full clients: %d -> %d",
			base.Report.Qmin.NeverFull, fixed.Report.Qmin.NeverFull)
	}
}

// TestChurnReducesPerSourceEffectiveness models §3.6.2: resolvers going
// offline mid-experiment reduce reach, but AS-level detection degrades
// far more slowly (one timely hit suffices).
func TestChurnReducesPerSourceEffectiveness(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 71, ASes: 120})
	base, err := RunSurveyOn(pop, SurveyConfig{Scanner: scanner.Config{Seed: 72, Rate: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	churned, err := RunSurveyOn(pop, SurveyConfig{
		Scanner:       scanner.Config{Seed: 72, Rate: 5000},
		ChurnFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if churned.Report.V4.ReachableAddrs >= base.Report.V4.ReachableAddrs {
		t.Fatalf("churn did not reduce reachable addrs: %d vs %d",
			churned.Report.V4.ReachableAddrs, base.Report.V4.ReachableAddrs)
	}
	if churned.Report.V4.ReachableAddrs == 0 {
		t.Fatal("50% churn silenced the survey entirely")
	}
	// AS detection is far more robust: an AS counts from a single
	// timely hit before its resolvers churned away.
	baseAS, churnAS := base.Report.V4.ReachableASes, churned.Report.V4.ReachableASes
	if churnAS < baseAS*7/10 {
		t.Fatalf("AS detection fell from %d to %d under churn", baseAS, churnAS)
	}
}
