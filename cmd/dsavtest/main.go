// Command dsavtest is the per-network testing tool the paper's §6
// proposes offering to the public: it probes a single AS with the full
// spoofed-source battery and reports which categories penetrated the
// border — i.e., whether the network deploys DSAV and bogon filtering,
// and which of its resolvers are exposed. It runs the survey campaign
// on that one AS, so its findings are the survey's: a hit past the
// §3.6.3 lifetime threshold, such as an IDS analyst's delayed lookup of
// a dropped probe, counts for nothing.
//
// Usage:
//
//	dsavtest [-ases N] [-seed N] -asn <asn>
//	dsavtest -list           # print testable ASNs with ground truth
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"slices"

	doors "repro"
	"repro/internal/ditl"
	"repro/internal/scanner"
	"repro/internal/world"
)

func main() {
	var (
		ases = flag.Int("ases", 200, "synthetic world size")
		seed = flag.Int64("seed", 42, "world seed")
		asn  = flag.Uint("asn", 0, "AS number to test (first AS when 0)")
		list = flag.Bool("list", false, "list testable ASNs with their ground truth")
	)
	flag.Parse()

	pop := ditl.Generate(ditl.Params{Seed: *seed, ASes: *ases})
	if *list {
		for _, as := range pop.ASes {
			fmt.Printf("%v dsav=%v bogon-filter=%v resolvers=%d\n",
				as.ASN, as.DSAV, as.FilterBogons, as.NumResolvers())
		}
		return
	}

	var spec *ditl.ASSpec
	for _, as := range pop.ASes {
		if *asn == 0 || uint(as.ASN) == *asn {
			spec = as
			break
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "dsavtest: AS%d not in this world (use -list)\n", *asn)
		os.Exit(1)
	}
	fmt.Printf("Testing %v: %d candidate resolvers, %d announced prefixes\n",
		spec.ASN, spec.NumResolvers(), len(spec.Prefixes()))

	f, err := testAS(spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsavtest:", err)
		os.Exit(1)
	}

	fmt.Printf("Sent %d probes.\n\n", f.probes)
	fmt.Println("Spoofed-source categories that penetrated the border:")
	for _, cat := range []scanner.SourceCategory{scanner.CatOtherPrefix, scanner.CatSamePrefix,
		scanner.CatPrivate, scanner.CatDstAsSrc, scanner.CatLoopback} {
		status := "blocked or unanswered"
		if f.penetrated[cat] > 0 {
			status = fmt.Sprintf("PENETRATED (%d addresses)", f.penetrated[cat])
		}
		fmt.Printf("  %-13s %s\n", cat, status)
	}

	fmt.Println()
	switch {
	case f.lacksDSAV:
		fmt.Println("VERDICT: this network LACKS DSAV — packets claiming internal sources")
		fmt.Println("         cross its border. Configure border routers to drop inbound")
		fmt.Println("         packets bearing internal source addresses.")
	case spec.NumResolvers() == 0:
		fmt.Println("VERDICT: no resolvers to test.")
	default:
		fmt.Println("VERDICT: no internal-source spoofed query penetrated; the network")
		fmt.Println("         deploys DSAV (or no resolver accepted our sources).")
	}
	if f.lacksBogonFilter {
		fmt.Println("NOTE:    special-purpose (private/loopback) sources also penetrated —")
		fmt.Println("         the border performs no bogon filtering.")
	}
	fmt.Printf("\nGround truth for this simulated AS: DSAV=%v, bogon filtering=%v\n",
		spec.DSAV, spec.FilterBogons)
	fmt.Printf("Resolvers reached: %d (%d also answer arbitrary clients: open)\n",
		f.reached, f.open)
}

// finding is one AS's test, read off the survey's Report: the probes
// scheduled, the resolvers a timely spoofed query reached at either of
// their addresses (and of them the open ones), and per source category
// the addresses it reached.
type finding struct {
	probes, reached, open int
	penetrated            map[scanner.SourceCategory]int
	// lacksDSAV: an internal source (another prefix of the AS, the
	// target's own prefix, the target itself) crossed the border;
	// lacksBogonFilter: a private or loopback source did.
	lacksDSAV, lacksBogonFilter bool
}

// testAS surveys spec's live resolvers with the default survey
// campaign, on a population of that AS alone, with the world seeded
// seed+1 and the scanner seed+2.
func testAS(spec *ditl.ASSpec, seed int64) (finding, error) {
	one := *spec
	one.DeadTargets = nil // the tool probes live resolvers only
	s, err := doors.RunSurveyOn(&ditl.Population{ASes: []*ditl.ASSpec{&one}}, doors.SurveyConfig{
		World:   world.Options{Seed: seed + 1},
		Scanner: scanner.Config{Seed: seed + 2, Keyword: "dtest", Rate: 10000},
	})
	if err != nil {
		return finding{}, err
	}
	r := s.Report
	p := make(map[scanner.SourceCategory]int)
	for _, row := range slices.Concat(r.Table3.V4, r.Table3.V6) {
		p[row.Category] += row.InclusiveAddrs
	}
	reached, open := 0, 0
	for k := range spec.NumResolvers() {
		rs := spec.Resolver(k)
		if anyIn(r.ReachableAddrs, rs.Addr4, rs.Addr6) {
			reached++
		}
		if anyIn(r.OpenAddrs, rs.Addr4, rs.Addr6) {
			open++
		}
	}
	return finding{
		probes:           s.Probes,
		reached:          reached,
		open:             open,
		penetrated:       p,
		lacksDSAV:        p[scanner.CatOtherPrefix]+p[scanner.CatSamePrefix]+p[scanner.CatDstAsSrc] > 0,
		lacksBogonFilter: p[scanner.CatPrivate]+p[scanner.CatLoopback] > 0,
	}, nil
}

// anyIn reports whether a valid one of addrs is in sorted.
func anyIn(sorted []netip.Addr, addrs ...netip.Addr) bool {
	for _, a := range addrs {
		if _, ok := slices.BinarySearchFunc(sorted, a, netip.Addr.Compare); ok && a.IsValid() {
			return true
		}
	}
	return false
}
