package doors

// Shard-invariance tests for the inbound-SAV campaign: the new phase
// set must be exactly as deterministic as the default survey — same
// seeds, same merged hits and Report at any shard count, with and
// without chaos — while scheduling none of the survey's follow-ups.

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/scanner"
)

func inboundSAVConfig(shards int) SurveyConfig {
	return SurveyConfig{
		Population: ditl.Params{Seed: 7, ASes: 40},
		Campaign:   campaign.NewInboundSAV(),
		Scanner:    scanner.Config{Seed: 8, Rate: 10000},
		Shards:     shards,
	}
}

// assertInboundSAVShape checks the campaign did what its phase list
// says: only main probes, no follow-up sets, no characterization hits.
func assertInboundSAVShape(t *testing.T, s *Survey) {
	t.Helper()
	if s.Campaign.Name != "inbound-sav" {
		t.Fatalf("campaign = %q, want inbound-sav", s.Campaign.Name)
	}
	if s.Scanner.Stats.FollowUpSetsSent != 0 || s.Scanner.Stats.FollowUpQueries != 0 {
		t.Fatalf("inbound-SAV campaign sent follow-ups: %+v", s.Scanner.Stats)
	}
	for _, h := range s.Scanner.Hits {
		if h.Kind != scanner.ProbeMain {
			t.Fatalf("non-main hit %v in inbound-SAV campaign", h.Kind)
		}
	}
	if got, want := s.Probes, int(s.Scanner.Stats.TargetsAdmitted); got > want {
		t.Fatalf("scheduled %d probes for %d targets, want at most one each", got, want)
	}
	if len(s.Report.OpenAddrs) != 0 {
		t.Fatalf("open-resolver list without open probes: %d entries", len(s.Report.OpenAddrs))
	}
}

func TestInboundSAVCampaignIsDeterministic(t *testing.T) {
	base, err := RunSurvey(inboundSAVConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	assertInboundSAVShape(t, base)
	if base.Report.V4.ReachableAddrs == 0 {
		t.Fatal("baseline inbound-SAV campaign reached nothing")
	}
	for _, k := range []int{2, 8} {
		s, err := RunSurvey(inboundSAVConfig(k))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		assertInboundSAVShape(t, s)
		if s.Probes != base.Probes || s.Duration != base.Duration {
			t.Fatalf("shards=%d: probes/duration %d/%v, want %d/%v",
				k, s.Probes, s.Duration, base.Probes, base.Duration)
		}
		if !reflect.DeepEqual(s.Scanner.Targets, base.Scanner.Targets) {
			t.Fatalf("shards=%d: merged target list differs", k)
		}
		if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
			t.Fatalf("shards=%d: merged hits differ (%d vs %d)",
				k, len(s.Scanner.Hits), len(base.Scanner.Hits))
		}
		if !reflect.DeepEqual(s.Scanner.Partials, base.Scanner.Partials) {
			t.Fatalf("shards=%d: merged partials differ: %#v vs %#v", k, s.Scanner.Partials, base.Scanner.Partials)
		}
		if s.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("shards=%d: stats differ: %+v vs %+v", k, s.Scanner.Stats, base.Scanner.Stats)
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Fatalf("shards=%d: report differs", k)
		}
	}
}

func TestInboundSAVCampaignWithChaosIsDeterministic(t *testing.T) {
	chaosConfig := func(shards int) SurveyConfig {
		cfg := inboundSAVConfig(shards)
		cfg.Chaos = chaos.Default(99)
		return cfg
	}
	base, err := RunSurvey(chaosConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	assertInboundSAVShape(t, base)
	if base.Invariants == nil || !base.Invariants.Ok() {
		t.Fatalf("invariants under chaos: %+v", base.Invariants)
	}
	for _, k := range []int{3, 5} {
		s, err := RunSurvey(chaosConfig(k))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if s.ChaosCrashes != base.ChaosCrashes {
			t.Fatalf("shards=%d: %d crashes, want %d", k, s.ChaosCrashes, base.ChaosCrashes)
		}
		if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
			t.Fatalf("shards=%d: merged hits differ under chaos", k)
		}
		if !reflect.DeepEqual(s.Scanner.Partials, base.Scanner.Partials) {
			t.Fatalf("shards=%d: merged partials differ under chaos: %#v vs %#v", k, s.Scanner.Partials, base.Scanner.Partials)
		}
		if s.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("shards=%d: stats differ under chaos: %+v vs %+v", k, s.Scanner.Stats, base.Scanner.Stats)
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Fatalf("shards=%d: report differs under chaos", k)
		}
		if !reflect.DeepEqual(s.Invariants, base.Invariants) {
			t.Fatalf("shards=%d: invariant report differs", k)
		}
	}
}
