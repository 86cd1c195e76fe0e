// Command dsavsurvey runs the paper's DSAV survey (§3-§5) on a
// synthetic Internet and prints the headline results and Tables 1-4.
//
// Usage:
//
//	dsavsurvey [-ases N] [-seed N] [-rate QPS] [-loss P] [-shards K]
//	           [-campaign NAME] [-phases LIST] [-maxparallel N]
//	           [-wildcard] [-alldsav] [-nodsav] [-figures]
//	           [-chaos] [-invariants=false]
//	           [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	doors "repro"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/world"
)

func main() {
	var (
		ases     = flag.Int("ases", 800, "number of target ASes in the synthetic population")
		seed     = flag.Int64("seed", 42, "population/world/scanner seed")
		rate     = flag.Float64("rate", 20000, "probe rate (queries per virtual second)")
		loss     = flag.Float64("loss", 0, "transit packet loss rate")
		camp     = flag.String("campaign", "survey", "campaign to run: survey (reachability + characterization) or inbound-sav (one spoofed internal source per target, no follow-ups)")
		phases   = flag.String("phases", "", "comma-separated phase list (reachability, characterization, inbound-sav) overriding -campaign")
		wildcard = flag.Bool("wildcard", false, "serve wildcard answers instead of NXDOMAIN (§3.6.4 fix)")
		allDSAV  = flag.Bool("alldsav", false, "counterfactual: every AS deploys DSAV")
		noDSAV   = flag.Bool("nodsav", false, "counterfactual: no AS deploys DSAV")
		figures  = flag.Bool("figures", false, "print Figure 2 histograms")
		shards   = flag.Int("shards", -1, "parallel simulation shards (-1 = one per CPU, 1 = serial); results are identical at any value")
		chaosOn  = flag.Bool("chaos", false, "inject the deterministic fault schedule (link flap, dup/reorder/corrupt, resolver crashes, clock skew)")
		invar    = flag.Bool("invariants", true, "check simulation invariants on every delivery and cache event")
		maxPar   = flag.Int("maxparallel", 0, "max concurrently running shard simulations (0 = one per CPU), the peak-memory knob")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsavsurvey:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dsavsurvey:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsavsurvey:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // surface live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dsavsurvey:", err)
			os.Exit(1)
		}
	}()

	c, err := campaign.ByName(*camp)
	if err == nil && *phases != "" {
		c, err = campaign.NewFromPhases(strings.Split(*phases, ","))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsavsurvey:", err)
		os.Exit(2)
	}

	// The survey prints only the scanner's counters and the Report, so
	// it keeps neither the shard worlds (Stream) nor the merged hit,
	// partial and target buffers (Fold): each shard's observations fold
	// into its partition, and peak memory stays per-shard through the
	// report.
	cfg := doors.SurveyConfig{
		Campaign:   c,
		Population: ditl.Params{Seed: *seed, ASes: *ases},
		World: world.Options{
			Seed: *seed + 1, LossRate: *loss,
			Wildcard: *wildcard, AllDSAV: *allDSAV, NoDSAV: *noDSAV,
		},
		Scanner:           scanner.Config{Seed: *seed + 2, Rate: *rate},
		Shards:            *shards,
		Stream:            true,
		Fold:              true,
		MaxParallel:       *maxPar,
		DisableInvariants: !*invar,
	}
	if *chaosOn {
		cfg.Chaos = chaos.Default(uint64(*seed) + 3)
	}
	s, err := doors.RunSurvey(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsavsurvey:", err)
		os.Exit(1)
	}

	names := make([]string, len(s.Campaign.Phases))
	for i, ph := range s.Campaign.Phases {
		names[i] = ph.Name()
	}
	// The merged buffers are never materialized; the stats counters
	// carry their totals.
	fmt.Printf("Campaign %q (phases: %s): %d probes over %v of virtual time; %d hits, %d partial (QNAME-minimized) hits\n\n",
		s.Campaign.Name, strings.Join(names, " → "),
		s.Probes, s.Duration, s.Scanner.Stats.HitsObserved, s.Scanner.Stats.PartialHitsObserved)
	if *chaosOn {
		fmt.Printf("Chaos: %d resolver crashes injected\n", s.ChaosCrashes)
	}
	if s.Invariants != nil {
		fmt.Printf("Invariants: %d deliveries, %d responses, %d cache serves checked; %d violations\n\n",
			s.Invariants.DeliveriesChecked, s.Invariants.ResponsesChecked,
			s.Invariants.CacheServes, s.Invariants.ViolationCount)
	}
	r := s.Report
	fmt.Println(report.Headline(r))
	fmt.Println(report.Table1(r))
	fmt.Println(report.Table2(r))
	fmt.Println(report.Table3(r))
	fmt.Println(report.Table4(r))
	fmt.Println(report.Sections(r))
	fmt.Println(report.ZeroTopPorts(r, 5))
	if *figures {
		fmt.Println(report.Histogram(
			"Figure 2 (upper): source-port range frequency, 0-65535 ('#' closed, 'o' open)",
			r.Ports.HistFullOpen, r.Ports.HistFullClosed, report.DefaultOverlays()))
		fmt.Println(report.Histogram(
			"Figure 2 (lower): source-port range frequency, 0-3000",
			r.Ports.HistZoomOpen, r.Ports.HistZoomClosed, nil))
	}
}
