// Command ditlgen generates a synthetic DITL population and prints its
// composition: the ground truth the survey pipeline is measured against.
//
// Usage:
//
//	ditlgen [-ases N] [-seed N] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/ditl"
)

func main() {
	var (
		ases     = flag.Int("ases", 800, "number of target ASes")
		seed     = flag.Int64("seed", 42, "generation seed")
		verbose  = flag.Bool("v", false, "per-AS detail")
		export   = flag.String("export", "", "write the population as JSON to this file")
		importIn = flag.String("import", "", "load a population from JSON instead of generating")
	)
	flag.Parse()

	var pop *ditl.Population
	if *importIn != "" {
		f, err := os.Open(*importIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ditlgen:", err)
			os.Exit(1)
		}
		pop, err = ditl.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ditlgen:", err)
			os.Exit(1)
		}
		if err := pop.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "ditlgen: invalid population:", err)
			os.Exit(1)
		}
	} else {
		p := ditl.Params{Seed: *seed, ASes: *ases}
		if err := p.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "ditlgen:", err)
			os.Exit(2)
		}
		pop = ditl.Generate(p)
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ditlgen:", err)
			os.Exit(1)
		}
		if err := pop.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "ditlgen:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *export)
	}
	s := pop.Summarize()
	fmt.Printf("ASes:            %d (%d lacking DSAV, %d with IPv6)\n", s.ASes, s.NoDSAV, s.V6ASes)
	fmt.Printf("Targets:         %d IPv4 + %d IPv6 (%d live resolvers, %d dead)\n",
		s.TargetsV4, s.TargetsV6, s.LiveResolvers, s.DeadTargets)
	fmt.Printf("Resolvers:       %d forwarders, %d open, %d fixed-port\n",
		s.Forwarders, s.OpenResolvers, s.ZeroPort)

	bands := map[ditl.Band]int{}
	scopes := map[ditl.ACLScope]int{}
	for _, as := range pop.ASes {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			if !r.Forward {
				bands[r.Band]++
			}
			scopes[r.Scope]++
		}
	}
	fmt.Println("Direct-resolver port bands:")
	for _, b := range []ditl.Band{ditl.BandZero, ditl.BandLow, ditl.BandMidLow, ditl.BandWindows,
		ditl.BandMidGap, ditl.BandFreeBSD, ditl.BandLinux, ditl.BandFull} {
		fmt.Printf("  %-8s %6d\n", b, bands[b])
	}
	fmt.Println("ACL scopes:")
	for sc := ditl.ScopeOpen; sc <= ditl.ScopeStrict; sc++ {
		fmt.Printf("  %-13s %6d\n", sc, scopes[sc])
	}

	if *verbose {
		for _, as := range pop.ASes {
			fmt.Printf("%v dsav=%v osav=%v bogon=%v countries=%v prefixes=%v resolvers=%d dead=%d\n",
				as.ASN, as.DSAV, as.OSAV, as.FilterBogons, as.Countries,
				len(as.Prefixes()), as.NumResolvers(), len(as.DeadTargets))
		}
	}
}
