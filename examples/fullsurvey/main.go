// Fullsurvey: the paper's full survey at a scaled-down 600 ASes —
// generate a DITL population, then let doors.RunSurveyOn run the
// survey campaign: build the simulated Internet, admit targets, spread
// the spoofed-source probes over the campaign window, run the virtual
// clock with its reactive follow-ups, and analyze the authoritative
// logs. It prints the admission, probe and hit counts from the Result,
// then the paper's Tables 1-4.
package main

import (
	"fmt"
	"log"

	doors "repro"
	"repro/internal/ditl"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/world"
)

func main() {
	// Synthesize the DITL-derived target population (§3.1): ASes, live
	// resolvers with their ACL/OS/software joint distribution, and dead
	// addresses that no longer answer.
	pop := ditl.Generate(ditl.Params{Seed: 2019, ASes: 600})
	stats := pop.Summarize()
	fmt.Printf("Population: %d ASes (%d lacking DSAV), %d live resolvers, %d dead targets\n",
		stats.ASes, stats.NoDSAV, stats.LiveResolvers, stats.DeadTargets)

	// The survey campaign: up to 101 spoofed sources per target, spread
	// evenly over the window (§3.2, §3.4), sent from a vantage point
	// whose provider does not filter outbound spoofed packets; follow-up
	// probes fire as hits arrive (§3.5).
	s, err := doors.RunSurveyOn(pop, doors.SurveyConfig{
		World:   world.Options{Seed: 2020},
		Scanner: scanner.Config{Seed: 2021, Rate: 20000, Keyword: "imc20"},
	})
	if err != nil {
		log.Fatal(err)
	}
	st := s.Scanner.Stats
	fmt.Printf("Admitted %d targets (excluded: %d special-purpose, %d unrouted)\n",
		st.TargetsAdmitted, st.ExcludedSpecial, st.ExcludedUnrouted)
	fmt.Printf("Scheduled %d probes across %v of virtual time\n", s.Probes, s.Duration)
	fmt.Printf("Observed %d authoritative-log hits (%d QNAME-minimized partials)\n",
		len(s.Scanner.Hits), len(s.Scanner.Partials))

	// The analysis (§4, §5).
	rep := s.Report
	fmt.Println()
	fmt.Println(report.Headline(rep))
	fmt.Println(report.Table1(rep))
	fmt.Println(report.Table2(rep))
	fmt.Println(report.Table3(rep))
	fmt.Println(report.Table4(rep))
	fmt.Println(report.Sections(rep))
}
