package doors

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/scanner"
)

// TestStreamingMatchesRetained pins the streaming engine's core
// guarantee: a survey run under Config.Stream — population synthesized
// on demand by a ditl.View, worlds discarded shard by shard,
// observations reduced incrementally — produces a bit-identical Result
// to the retained engine over the materialized population
// (ditl.Generate), at several shard counts and parallelism bounds, up
// to more shards than ASes.
func TestStreamingMatchesRetained(t *testing.T) {
	cfg := SurveyConfig{
		Population: ditl.Params{Seed: 7, ASes: 40},
		Scanner:    scanner.Config{Seed: 8, Rate: 10000},
	}
	base, err := RunSurveyOn(ditl.Generate(cfg.Population), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 40 shards put a view mark at every AS; 64 leave trailing shards
	// empty.
	for _, tc := range []struct{ shards, maxPar int }{
		{1, 1}, {2, 1}, {2, 2}, {8, 3}, {40, 2}, {64, 2},
	} {
		scfg := cfg
		scfg.Stream = true
		scfg.Shards = tc.shards
		scfg.MaxParallel = tc.maxPar
		s, err := RunSurvey(scfg)
		if err != nil {
			t.Fatalf("stream shards=%d: %v", tc.shards, err)
		}
		if s.World != nil || s.Worlds != nil {
			t.Fatalf("stream shards=%d retained worlds", tc.shards)
		}
		if !reflect.DeepEqual(s.Scanner.Targets, base.Scanner.Targets) {
			t.Fatalf("stream shards=%d: targets differ", tc.shards)
		}
		if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
			t.Fatalf("stream shards=%d: hits differ (%d vs %d)",
				tc.shards, len(s.Scanner.Hits), len(base.Scanner.Hits))
		}
		if !reflect.DeepEqual(s.Scanner.Partials, base.Scanner.Partials) {
			t.Fatalf("stream shards=%d: partials differ", tc.shards)
		}
		if s.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("stream shards=%d: stats differ: %+v vs %+v",
				tc.shards, s.Scanner.Stats, base.Scanner.Stats)
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Fatalf("stream shards=%d: reports differ", tc.shards)
		}
		if s.Probes != base.Probes || s.Duration != base.Duration {
			t.Fatalf("stream shards=%d: probes/duration differ: %d/%v vs %d/%v",
				tc.shards, s.Probes, s.Duration, base.Probes, base.Duration)
		}
		if s.Invariants == nil || !s.Invariants.Ok() {
			t.Fatalf("stream shards=%d: invariant report missing or failing", tc.shards)
		}
	}
}

// TestFoldMatchesRetained pins the fold engine's guarantee: a survey
// run under Config.Fold — shard hit runs spilled to disk, the reduce
// streaming their hierarchical merge through the reducers, the targets
// counted per AS — produces the identical Report, stats and scalars as
// the retained engine, at several shard counts up to more shards than
// ASes, with the merged buffers never materialized.
func TestFoldMatchesRetained(t *testing.T) {
	cfg := SurveyConfig{
		Population: ditl.Params{Seed: 7, ASes: 40},
		Scanner:    scanner.Config{Seed: 8, Rate: 10000},
	}
	base, err := RunSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 40 shards put a view mark at every AS; 64 leave trailing shards
	// empty.
	for _, tc := range []struct{ shards, maxPar int }{
		{1, 1}, {2, 2}, {8, 3}, {40, 2}, {64, 2},
	} {
		fcfg := cfg
		fcfg.Fold = true
		fcfg.Shards = tc.shards
		fcfg.MaxParallel = tc.maxPar
		s, err := RunSurvey(fcfg)
		if err != nil {
			t.Fatalf("fold shards=%d: %v", tc.shards, err)
		}
		if s.World != nil || s.Worlds != nil {
			t.Fatalf("fold shards=%d retained worlds", tc.shards)
		}
		if s.Scanner.Targets != nil || s.Scanner.Hits != nil || s.Scanner.Partials != nil {
			t.Fatalf("fold shards=%d materialized merged buffers", tc.shards)
		}
		if s.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("fold shards=%d: stats differ: %+v vs %+v",
				tc.shards, s.Scanner.Stats, base.Scanner.Stats)
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Fatalf("fold shards=%d: reports differ", tc.shards)
		}
		if s.Probes != base.Probes || s.Duration != base.Duration {
			t.Fatalf("fold shards=%d: probes/duration differ: %d/%v vs %d/%v",
				tc.shards, s.Probes, s.Duration, base.Probes, base.Duration)
		}
		if s.Invariants == nil || !s.Invariants.Ok() {
			t.Fatalf("fold shards=%d: invariant report missing or failing", tc.shards)
		}
	}
}

// TestStreamingChaosAndChurn pins the streaming engine under the
// stressed paths: chaos faults and churn must produce the same merged
// observations as the retained engine at the same shard count (the
// fault schedule is keyed on causal identity and the campaign window,
// both engine-invariant).
func TestStreamingChaosAndChurn(t *testing.T) {
	cfg := SurveyConfig{
		Population:    ditl.Params{Seed: 7, ASes: 40},
		Scanner:       scanner.Config{Seed: 8, Rate: 10000},
		ChurnFraction: 0.1,
		Shards:        3,
	}
	cfg.Chaos = chaos.Default(99)
	base, err := RunSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.ChaosCrashes == 0 {
		t.Fatal("chaos did not bite in the retained baseline")
	}
	scfg := cfg
	scfg.Stream = true
	s, err := RunSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
		t.Fatalf("chaos stream: hits differ (%d vs %d)", len(s.Scanner.Hits), len(base.Scanner.Hits))
	}
	if s.ChaosCrashes != base.ChaosCrashes {
		t.Fatalf("chaos stream: crashes %d vs %d", s.ChaosCrashes, base.ChaosCrashes)
	}
	if !reflect.DeepEqual(s.Report, base.Report) {
		t.Fatal("chaos stream: reports differ")
	}

	fcfg := cfg
	fcfg.Fold = true
	f, err := RunSurvey(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.ChaosCrashes != base.ChaosCrashes {
		t.Fatalf("chaos fold: crashes %d vs %d", f.ChaosCrashes, base.ChaosCrashes)
	}
	if f.Scanner.Stats != base.Scanner.Stats {
		t.Fatalf("chaos fold: stats differ: %+v vs %+v", f.Scanner.Stats, base.Scanner.Stats)
	}
	if !reflect.DeepEqual(f.Report, base.Report) {
		t.Fatal("chaos fold: reports differ")
	}
}
