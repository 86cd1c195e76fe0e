// Spoofercompare: the §2 methodological comparison, run on one shared
// population. The CAIDA-Spoofer approach needs a volunteer inside every
// network and cannot test DSAV behind NAT; the paper's approach needs no
// client at all — it probes resolvers that already exist. This example
// measures the same synthetic Internet both ways and compares coverage
// and agreement.
package main

import (
	"fmt"
	"log"
	"net/netip"

	doors "repro"
	"repro/internal/ditl"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/scanner"
	"repro/internal/spoofer"
)

func main() {
	pop := ditl.Generate(ditl.Params{Seed: 51, ASes: 400})

	// --- The paper's survey (no volunteers needed). ---
	survey, err := doors.RunSurveyOn(pop, doors.SurveyConfig{
		Scanner: scanner.Config{Seed: 52, Rate: 20000},
	})
	if err != nil {
		log.Fatal(err)
	}
	surveyDetected := make(map[routing.ASN]bool)
	addrASN := make(map[netip.Addr]routing.ASN)
	for _, tgt := range survey.Scanner.Targets {
		addrASN[tgt.Addr] = tgt.ASN
	}
	for _, a := range survey.Report.ReachableAddrs {
		surveyDetected[addrASN[a]] = true
	}

	// --- The Spoofer-style campaign: one volunteer per AS, a third of
	// them behind NAT. ---
	reg := routing.NewRegistry()
	rxAS := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{netip.MustParsePrefix("30.1.0.0/16")}}
	if err := reg.Add(rxAS); err != nil {
		log.Fatal(err)
	}
	for _, as := range pop.ASes {
		if err := reg.Add(&routing.AS{
			ASN: as.ASN, Prefixes: as.Prefixes(), DSAV: as.DSAV, OSAV: as.OSAV,
		}); err != nil {
			log.Fatal(err)
		}
	}
	n := netsim.New(reg, netsim.Config{Seed: 53})
	rxHost, err := n.Attach("receiver", rxAS, netip.MustParseAddr("30.1.0.1"))
	if err != nil {
		log.Fatal(err)
	}
	rx, err := spoofer.NewReceiver(rxHost, netip.MustParseAddr("30.1.0.1"))
	if err != nil {
		log.Fatal(err)
	}
	camp := &spoofer.Campaign{}
	spooferDetected := make(map[routing.ASN]bool)
	for i, as := range pop.ASes {
		pub := routing.AddrAt(routing.SubnetAt(as.V4Prefixes[0], 0), 220)
		host, err := n.Attach(fmt.Sprintf("vol-%d", i), reg.AS(as.ASN), pub)
		if err != nil {
			log.Fatal(err)
		}
		if i%3 == 0 {
			pub = netip.Addr{} // behind NAT: no public address
		}
		cl, err := spoofer.NewClient(host, pub)
		if err != nil {
			log.Fatal(err)
		}
		res, err := spoofer.Session(n, cl, rx, uint64(i)*10)
		if err != nil {
			log.Fatal(err)
		}
		camp.Results = append(camp.Results, res)
		if res.DSAV == spoofer.VerdictAllowed {
			spooferDetected[as.ASN] = true
		}
	}

	// --- Compare. ---
	truthNoDSAV := 0
	agree, surveyOnly, spooferOnly := 0, 0, 0
	for _, as := range pop.ASes {
		if !as.DSAV {
			truthNoDSAV++
		}
		sv, sp := surveyDetected[as.ASN], spooferDetected[as.ASN]
		switch {
		case sv && sp:
			agree++
		case sv:
			surveyOnly++
		case sp:
			spooferOnly++
		}
	}
	fmt.Printf("Ground truth: %d of %d ASes lack DSAV (%.0f%%)\n",
		truthNoDSAV, len(pop.ASes), 100*float64(truthNoDSAV)/float64(len(pop.ASes)))
	fmt.Printf("Paper-style survey flagged %d ASes; Spoofer-style flagged %d.\n",
		len(surveyDetected), len(spooferDetected))
	fmt.Printf("Both agree on %d; survey-only %d; spoofer-only %d.\n", agree, surveyOnly, spooferOnly)
	fmt.Printf("Spoofer untestable share (NAT): %.0f%% — the coverage gap the paper's\n",
		100*camp.UntestableShare())
	fmt.Println("methodology closes by targeting existing public-facing resolvers.")
	fmt.Printf("Spoofer no-DSAV share among testable volunteers: %.0f%% (cf. [32]'s 67%%).\n",
		100*camp.LacksDSAVShare())
}
