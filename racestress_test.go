package doors

// Race-stress cross-validation (make racestress): the lockguard and
// golifetime analyzers make a static claim — the engine's concurrency
// discipline is sound — and these tests make the dynamic half of the
// argument under `go test -race`. TestRaceStressConcurrentCampaigns
// runs two streaming campaigns at once over one shared population view
// at high MaxParallel, so up to 2 × MaxParallel shard workers run
// together. The engine's workers share no mutable state, only frozen
// inputs: any sharing hole is the race detector's to find, and any
// determinism hole shows up as a result mismatch.
// TestRaceStressLintAgreement closes the loop from the other side: the
// concurrency-bearing packages must come back clean from exactly those
// two analyzers, so a race-detector pass here is never read as
// "annotations unnecessary" and a clean lint report is never read as
// "stress test redundant".

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/ditl"
	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/scanner"
)

func TestRaceStressConcurrentCampaigns(t *testing.T) {
	cfg := SurveyConfig{
		Population:  ditl.Params{Seed: 7, ASes: 40},
		Scanner:     scanner.Config{Seed: 8, Rate: 10000},
		Stream:      true,
		Shards:      8,
		MaxParallel: 4,
	}
	pop := ditl.NewView(cfg.Population)

	// Sequential baseline.
	base, err := campaign.Run(pop, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Two campaigns over the same population view run at once, each
	// running 8 shard simulations on up to 4 worker goroutines.
	const runs = 2
	results := make([]*Survey, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int, pop ditl.Pop, cfg SurveyConfig) {
			defer wg.Done()
			results[i], errs[i] = campaign.Run(pop, cfg)
		}(i, pop, cfg)
	}
	wg.Wait()

	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		s := results[i]
		if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
			t.Errorf("concurrent run %d: hits diverge from sequential baseline (%d vs %d)",
				i, len(s.Scanner.Hits), len(base.Scanner.Hits))
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Errorf("concurrent run %d: report diverges from sequential baseline", i)
		}
		if s.ResolverStats != base.ResolverStats {
			t.Errorf("concurrent run %d: resolver stats diverge: %+v vs %+v",
				i, s.ResolverStats, base.ResolverStats)
		}
	}
	if base.ResolverStats.ClientQueries == 0 {
		t.Error("baseline resolver stats are empty: the merge never saw the shards")
	}
}

func TestRaceStressLintAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-package analysis in -short mode")
	}
	diags, err := loader.Run(".", []string{
		"./internal/campaign/...",
		"./internal/resolver/...",
		"./internal/world/...",
		"./internal/netsim/...",
		"./internal/lint/...",
	}, []*analysis.Analyzer{lint.LockGuard, lint.GoLifetime})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		t.Fatalf("%d lockguard/golifetime findings: static and dynamic verdicts disagree", len(diags))
	}
}
