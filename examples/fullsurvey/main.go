// Fullsurvey: the paper's measurement pipeline assembled step by step
// from the library's pieces — generate a DITL population, build the
// simulated Internet, admit targets, schedule the spoofed-source probe
// campaign, run the virtual clock, and analyze the authoritative logs —
// then print the paper's Tables 1-4.
//
// This is the explicit form of what doors.RunSurvey does in one call.
package main

import (
	"fmt"
	"log"
	"net/netip"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/ditl"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/world"
)

func main() {
	// 1. Synthesize the DITL-derived target population (§3.1): ASes,
	//    live resolvers with their ACL/OS/software joint distribution,
	//    and dead addresses that no longer answer.
	pop := ditl.Generate(ditl.Params{Seed: 2019, ASes: 600})
	stats := pop.Summarize()
	fmt.Printf("Population: %d ASes (%d lacking DSAV), %d live resolvers, %d dead targets\n",
		stats.ASes, stats.NoDSAV, stats.LiveResolvers, stats.DeadTargets)

	// 2. Build the simulated Internet: DNS root/TLD/experiment servers,
	//    public DNS services, border filters, middleboxes, IDS analysts.
	w, err := world.Build(pop, world.Options{Seed: 2020})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Create the scanner at a vantage point whose provider does not
	//    filter outbound spoofed packets (§3.4) and admit targets (§3.1).
	sc, err := scanner.New(w.Scanner, w.ScannerAddr4, w.ScannerAddr6, w.Reg, w.Auth,
		scanner.Config{Seed: 2021, Rate: 20000, Keyword: "imc20"})
	if err != nil {
		log.Fatal(err)
	}
	sc.Admit(campaign.CandidateAddrs(pop, nil))
	fmt.Printf("Admitted %d targets (excluded: %d special-purpose, %d unrouted)\n",
		sc.Stats.TargetsAdmitted, sc.Stats.ExcludedSpecial, sc.Stats.ExcludedUnrouted)

	// 4. Schedule the probe campaign — up to 101 spoofed sources per
	//    target, spread evenly (§3.2, §3.4) — and run the virtual clock.
	//    Follow-up probes fire automatically as hits arrive (§3.5).
	probes, duration := sc.ScheduleAll()
	fmt.Printf("Scheduled %d probes across %v of virtual time\n", probes, duration)
	w.Net.Run()
	fmt.Printf("Observed %d authoritative-log hits (%d QNAME-minimized partials)\n",
		len(sc.Hits), len(sc.Partials))

	// 5. Analyze (§4, §5).
	rep := analysis.Analyze(analysis.Input{
		Hits: sc.Hits, Partials: sc.Partials, Targets: sc.Targets,
		ScannerAddrs: []netip.Addr{w.ScannerAddr4, w.ScannerAddr6},
		Reg:          w.Reg, Geo: campaign.GeoDB(pop),
	})

	fmt.Println()
	fmt.Println(report.Headline(rep))
	fmt.Println(report.Table1(rep))
	fmt.Println(report.Table2(rep))
	fmt.Println(report.Table3(rep))
	fmt.Println(report.Table4(rep))
	fmt.Println(report.Sections(rep))
}
