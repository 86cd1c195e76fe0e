package campaign

import (
	"reflect"
	"testing"

	"repro/internal/ditl"
	"repro/internal/scanner"
)

// TestFoldMergeGroupingInvariance pins the hierarchical merge's
// associativity at the survey level: the fold engine's Report must be
// byte-identical no matter how the spilled shard runs are grouped into
// pre-merge levels — flat 16-way (the default swallows 8 shards in one
// level), binary (fanIn=2 forces three levels of intermediate files),
// and ternary. This is the end-to-end companion of internal/runs'
// property test: same stable-merge core, here driven through run files,
// reducers, and the real survey campaign.
func TestFoldMergeGroupingInvariance(t *testing.T) {
	pop := ditl.NewView(ditl.Params{Seed: 7, ASes: 40})
	cfg := Config{
		Scanner: scanner.Config{Seed: 8, Rate: 10000},
		Fold:    true,
		Shards:  8,
	}
	run := func(fanIn int) *Result {
		t.Helper()
		old := mergeFanIn
		mergeFanIn = fanIn
		defer func() { mergeFanIn = old }()
		res, err := Run(pop, cfg)
		if err != nil {
			t.Fatalf("fanIn=%d: %v", fanIn, err)
		}
		return res
	}
	base := run(16)
	for _, fanIn := range []int{2, 3} {
		got := run(fanIn)
		if !reflect.DeepEqual(got.Report, base.Report) {
			t.Fatalf("fanIn=%d: report differs from flat merge", fanIn)
		}
		if got.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("fanIn=%d: stats differ", fanIn)
		}
	}
}
