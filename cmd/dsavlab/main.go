// Command dsavlab runs the paper's controlled lab experiments: the
// software port-pool survey (Table 5), the OS spoof-acceptance matrix
// (Table 6), and the sample-range distributions of Figure 3a. With
// -savablation it instead runs a campaign ablation: the full survey
// versus the inbound-SAV-only scan over one shared population,
// comparing headline reachability against probe cost.
//
// Usage:
//
//	dsavlab [-queries N] [-seed N] [-figures]
//	dsavlab -savablation [-ases N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	doors "repro"
	"repro/internal/campaign"
	"repro/internal/ditl"
	"repro/internal/labexp"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/world"
)

func main() {
	var (
		queries  = flag.Int("queries", 10000, "queries per software configuration (the paper used 10,000)")
		seed     = flag.Int64("seed", 1, "experiment seed")
		figures  = flag.Bool("figures", true, "print Figure 3a histograms")
		ablation = flag.Bool("savablation", false, "run the survey vs inbound-SAV campaign ablation instead of the lab experiments")
		ases     = flag.Int("ases", 200, "target ASes in the ablation population")
	)
	flag.Parse()

	if *ablation {
		if err := runSAVAblation(*ases, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "dsavlab:", err)
			os.Exit(1)
		}
		return
	}

	rows5, err := labexp.RunTable5(*queries, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsavlab:", err)
		os.Exit(1)
	}
	fmt.Println(report.Table5(rows5))

	rows6, err := labexp.RunSpoofMatrix(*seed + 100)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsavlab:", err)
		os.Exit(1)
	}
	fmt.Println(report.Table6(rows6))

	if *figures {
		series, err := labexp.RunFigure3a(*queries, *seed+200)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsavlab:", err)
			os.Exit(1)
		}
		for _, s := range series {
			fmt.Println(report.Histogram(
				fmt.Sprintf("Figure 3a: %s (pool %d), %d samples of 10",
					s.Label, s.PoolSize, len(s.Ranges)),
				nil, s.HistFull, report.DefaultOverlays()))
		}
	}
}

// runSAVAblation runs the full survey campaign and the inbound-SAV-only
// campaign over one shared population, so the comparison isolates the
// phase set: same targets, same world seeds, ~100× fewer probes on the
// SAV-only side.
func runSAVAblation(ases int, seed int64) error {
	params := ditl.Params{Seed: seed, ASes: ases}
	if err := params.Validate(); err != nil {
		return err
	}
	pop := ditl.Generate(params)
	base := doors.SurveyConfig{
		World:   world.Options{Seed: seed + 1},
		Scanner: scanner.Config{Seed: seed + 2, Rate: 20000},
	}

	fmt.Printf("Campaign ablation over %d ASes (seed %d):\n\n", ases, seed)
	for _, name := range []string{"survey", "inbound-sav"} {
		c, err := campaign.ByName(name)
		if err != nil {
			return err
		}
		cfg := base
		cfg.Campaign = c
		s, err := doors.RunSurveyOn(pop, cfg)
		if err != nil {
			return err
		}
		r := s.Report
		fmt.Printf("%-12s %8d probes  %7d hits  v4 addrs %5.2f%% ASes %5.2f%%  v6 addrs %5.2f%% ASes %5.2f%%\n",
			c.Name, s.Probes, len(s.Scanner.Hits),
			100*r.V4.AddrFraction(), 100*r.V4.ASFraction(),
			100*r.V6.AddrFraction(), 100*r.V6.ASFraction())
	}
	fmt.Println("\nThe inbound-SAV scan answers the headline DSAV question at a fraction")
	fmt.Println("of the probe volume; the survey campaign adds the §5 characterization.")
	return nil
}
