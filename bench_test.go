package doors

// Benchmark harness: one bench per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each bench
// regenerates its experiment — the expensive survey is shared across
// analysis benches via sync.Once so `go test -bench=.` stays tractable.

import (
	"net/netip"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/ditl"
	"repro/internal/geo"
	"repro/internal/labexp"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/stats"
	"repro/internal/world"
)

var (
	benchOnce   sync.Once
	benchSurvey *Survey
	benchInput  analysis.Input
)

// benchSetup runs one mid-sized survey shared by the analysis benches.
func benchSetup(b *testing.B) (*Survey, analysis.Input) {
	b.Helper()
	benchOnce.Do(func() {
		s, err := RunSurvey(SurveyConfig{
			Population: ditl.Params{Seed: 42, ASes: 400},
			Scanner:    scanner.Config{Seed: 43, Rate: 20000},
		})
		if err != nil {
			panic(err)
		}
		benchSurvey = s
		benchInput = analysis.Input{
			Hits: s.Scanner.Hits, Partials: s.Scanner.Partials,
			Targets:      s.Scanner.Targets,
			ScannerAddrs: []netip.Addr{s.World.ScannerAddr4, s.World.ScannerAddr6},
			Reg:          s.World.Reg, Geo: s.Geo,
		}
	})
	return benchSurvey, benchInput
}

// BenchmarkHeadlineReachability regenerates the §4 headline (4.6%/49%
// etc.) with a full probe campaign per iteration, single-shard.
func BenchmarkHeadlineReachability(b *testing.B) {
	benchHeadline(b, 1)
}

// BenchmarkHeadlineReachabilitySharded runs the same campaign with one
// shard per available CPU; comparing against the single-shard bench
// measures the parallel speedup of the sharded engine.
func BenchmarkHeadlineReachabilitySharded(b *testing.B) {
	benchHeadline(b, -1)
}

// BenchmarkHeadlineReachability1M scales the headline survey to 1M+
// candidate targets under the streaming engine: the population is a
// ditl.View (specs synthesized per shard, never all resident), each
// shard's world is discarded as soon as its observations reduce, and
// peak memory is per-shard — which is what lets this population run at
// all. One iteration is a full campaign over ~25,000 ASes (~1.2M
// admitted targets); run it with -benchtime 1x (scripts/bench.sh --mem
// does, under GOMEMLIMIT, and records it in the BENCH json).
func BenchmarkHeadlineReachability1M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := RunSurvey(SurveyConfig{
			Population: ditl.Params{Seed: int64(i), ASes: 25000},
			Scanner:    scanner.Config{Seed: int64(i) + 1, Rate: 5_000_000},
			Shards:     100,
			Stream:     true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if got := int(s.Scanner.Stats.TargetsAdmitted); got < 1_000_000 {
			b.Fatalf("admitted %d targets, want 1M+", got)
		}
		if s.Report.V4.ReachableAddrs == 0 {
			b.Fatal("survey reached nothing")
		}
	}
}

// BenchmarkHeadlineReachabilityPaperScale runs the survey at the
// paper's full scale: ~12M admitted targets (§3 scanned 12M+
// addresses), the fold engine end to end. The population is a
// ditl.View at DITL-plausible density (47,000 ASes, dead-target mean
// raised to 200), the campaign is the inbound-SAV scan (~one probe per
// target, no follow-ups — the paper's own full-population pass), and
// the reduce reads only the per-shard partitions and no merged buffer
// is built, so peak residency is O(live shards) + the population-sized
// read-only structures (registry, hit list) all the way through
// Report. One iteration is the whole
// campaign; run it with -benchtime 1x (scripts/bench.sh --mem does,
// under GOMEMLIMIT — completing under the limit is the
// flat-peak-memory check at paper scale).
func BenchmarkHeadlineReachabilityPaperScale(b *testing.B) {
	inboundSAV, err := campaign.ByName("inbound-sav")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s, err := RunSurvey(SurveyConfig{
			Population:  ditl.Params{Seed: int64(i), ASes: 47000, DeadTargetMean: 200},
			Campaign:    inboundSAV,
			Scanner:     scanner.Config{Seed: int64(i) + 1, Rate: 20_000_000},
			Shards:      256,
			MaxParallel: 2,
			Fold:        true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if got := s.Scanner.Stats.TargetsAdmitted; got < 10_000_000 {
			b.Fatalf("admitted %d targets, want 10M+", got)
		}
		if s.Report.V4.ReachableAddrs == 0 {
			b.Fatal("survey reached nothing")
		}
	}
}

func benchHeadline(b *testing.B, shards int) {
	for i := 0; i < b.N; i++ {
		s, err := RunSurvey(SurveyConfig{
			Population: ditl.Params{Seed: int64(i), ASes: 120},
			Scanner:    scanner.Config{Seed: int64(i) + 1, Rate: 50000},
			Shards:     shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		if s.Report.V4.ReachableAddrs == 0 {
			b.Fatal("survey reached nothing")
		}
	}
}

// BenchmarkFullAnalysis measures the complete evaluation pass over a
// recorded survey.
func BenchmarkFullAnalysis(b *testing.B) {
	_, in := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := analysis.Analyze(in); r.V4.Targets == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkTable1Countries regenerates Table 1 (top countries by ASes).
func BenchmarkTable1Countries(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := geo.TopByASCount(s.Report.Countries, 10)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		_ = report.Table1(s.Report)
	}
}

// BenchmarkTable2Countries regenerates Table 2 (top countries by
// reachable-IP share).
func BenchmarkTable2Countries(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := geo.TopByAddrFraction(s.Report.Countries, 10)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		_ = report.Table2(s.Report)
	}
}

// BenchmarkTable3Categories regenerates the category-inclusive/-exclusive
// table (§4.1).
func BenchmarkTable3Categories(b *testing.B) {
	s, in := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(in)
		if len(r.Table3.V4) != 5 {
			b.Fatal("bad table 3")
		}
		_ = report.Table3(s.Report)
	}
}

// BenchmarkTable4PortRanges regenerates the port-range band table
// (§5.2-5.3).
func BenchmarkTable4PortRanges(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := report.Table4(s.Report); len(out) == 0 {
			b.Fatal("empty table 4")
		}
	}
}

// BenchmarkTable5LabSoftware regenerates the software port-pool table
// via the lab pipeline (10,000 queries per config in the paper; 1,000
// here per iteration).
func BenchmarkTable5LabSoftware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := labexp.RunTable5(1000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("bad table 5")
		}
	}
}

// BenchmarkTable6OSAcceptance regenerates the spoof-acceptance matrix.
func BenchmarkTable6OSAcceptance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := labexp.RunSpoofMatrix(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("bad table 6")
		}
	}
}

// BenchmarkFigure2Histogram regenerates the wild port-range histograms.
func BenchmarkFigure2Histogram(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full := report.Histogram("fig2-upper", s.Report.Ports.HistFullOpen,
			s.Report.Ports.HistFullClosed, report.DefaultOverlays())
		zoom := report.Histogram("fig2-lower", s.Report.Ports.HistZoomOpen,
			s.Report.Ports.HistZoomClosed, nil)
		if len(full) == 0 || len(zoom) == 0 {
			b.Fatal("empty figure 2")
		}
	}
}

// BenchmarkFigure3aLab regenerates the controlled-lab sample-range
// distributions with Beta(9,2) overlays.
func BenchmarkFigure3aLab(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := labexp.RunFigure3a(1000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 4 {
			b.Fatal("bad figure 3a")
		}
	}
}

// BenchmarkFigure3bWild regenerates the wild sample-range figure with
// model overlays (the histogram side of Figure 3b; the p0f composition
// is Table 4's).
func BenchmarkFigure3bWild(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := report.Histogram("fig3b", s.Report.Ports.HistFullOpen,
			s.Report.Ports.HistFullClosed, report.DefaultOverlays())
		if len(out) == 0 {
			b.Fatal("empty figure 3b")
		}
	}
}

// BenchmarkOpenClosed regenerates the §5.1 open/closed classification.
func BenchmarkOpenClosed(b *testing.B) {
	_, in := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(in)
		if r.OpenClosed.Open+r.OpenClosed.Closed == 0 {
			b.Fatal("no classification")
		}
	}
}

// BenchmarkForwarding regenerates the §5.4 forwarding analysis.
func BenchmarkForwarding(b *testing.B) {
	_, in := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(in)
		if r.Forwarding.V4Resolved == 0 {
			b.Fatal("no forwarding data")
		}
	}
}

// BenchmarkMiddleboxes regenerates the §3.6.1 accounting.
func BenchmarkMiddleboxes(b *testing.B) {
	_, in := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(in)
		if r.Middlebox.ReachableASes == 0 {
			b.Fatal("no middlebox data")
		}
	}
}

// BenchmarkLifetimeFilter regenerates the §3.6.3 human-intervention
// accounting.
func BenchmarkLifetimeFilter(b *testing.B) {
	_, in := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Analyze(in).Lifetime
	}
}

// BenchmarkQnameMinimization regenerates the §3.6.4 accounting.
func BenchmarkQnameMinimization(b *testing.B) {
	_, in := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Analyze(in).Qmin
	}
}

// BenchmarkPassiveComparison regenerates the §5.2.2 2018-vs-2019
// comparison for zero-range resolvers.
func BenchmarkPassiveComparison(b *testing.B) {
	s, _ := benchSetup(b)
	passive := ditl.Passive2018(s.Population, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp := analysis.ComparePassive(s.Report.Ports.ZeroRange, passive)
		_ = cmp
	}
}

// BenchmarkCutoffDerivation regenerates the Table 4 band boundaries
// (941/2488/.../28222) from the Beta(9,2) model.
func BenchmarkCutoffDerivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bands := analysis.DefaultBands()
		if len(bands) != 8 {
			b.Fatal("bad bands")
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationDSAVEverywhere measures the counterfactual world
// where every AS deploys DSAV: spoofed-internal reach collapses.
func BenchmarkAblationDSAVEverywhere(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prot, err := RunSurveyOn(s.Population, SurveyConfig{
			World:   world.Options{AllDSAV: true},
			Scanner: scanner.Config{Seed: 43, Rate: 50000},
		})
		if err != nil {
			b.Fatal(err)
		}
		if prot.Report.V4.ReachableAddrs >= s.Report.V4.ReachableAddrs/2 {
			b.Fatal("DSAV ablation ineffective")
		}
	}
}

// BenchmarkAblationWildcardZone measures the §3.6.4 fix: wildcard
// answers recover visibility into QNAME-minimizing resolvers.
func BenchmarkAblationWildcardZone(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc, err := RunSurveyOn(s.Population, SurveyConfig{
			World:   world.Options{Wildcard: true},
			Scanner: scanner.Config{Seed: 43, Rate: 50000},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = wc.Report.Qmin
	}
}

// BenchmarkAblationSamePrefixOnly measures the Korczyński-style
// baseline derived from the category table: reach if only the
// same-prefix source had been used.
func BenchmarkAblationSamePrefixOnly(b *testing.B) {
	s, in := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(in)
		var sp analysis.CategoryRow
		for _, row := range r.Table3.V4 {
			if row.Category == scanner.CatSamePrefix {
				sp = row
			}
		}
		if sp.InclusiveAddrs == 0 || sp.InclusiveAddrs > s.Report.V4.ReachableAddrs {
			b.Fatal("bad same-prefix baseline")
		}
	}
}

// BenchmarkBetaModel measures the §5.3.2 statistical machinery.
func BenchmarkBetaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if q := stats.RangeQuantile(0.999, 28232, stats.SampleSize); q < 27000 {
			b.Fatal("bad quantile")
		}
	}
}

// BenchmarkAblationChurn measures the §3.6.2 churn counterfactual:
// taking half the resolvers offline mid-experiment.
func BenchmarkAblationChurn(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churned, err := RunSurveyOn(s.Population, SurveyConfig{
			Scanner:       scanner.Config{Seed: 43, Rate: 50000},
			ChurnFraction: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if churned.Report.V4.ReachableAddrs >= s.Report.V4.ReachableAddrs {
			b.Fatal("churn ablation ineffective")
		}
	}
}
