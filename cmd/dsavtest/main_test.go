package main

import (
	"testing"

	"repro/internal/ditl"
)

// TestVerdictsMatchGroundTruth tests every AS of the tool's default
// world (seed 42, 200 ASes) and scores the verdicts against the
// simulation's ground truth. Border filtering makes two of them
// certain: a probe with an internal source never crosses a DSAV border,
// and one with a private or loopback source never crosses a
// bogon-filtering border. So no AS that deploys DSAV may be told it
// lacks DSAV, and no AS that filters bogons may be told it does not. An
// IDS analyst's lookup of a dropped probe arrives long after the probe
// and must not count as a penetration. The tool counts resolvers, not
// addresses: no AS may report more resolvers reached than it has, nor
// more open resolvers than it reached.
func TestVerdictsMatchGroundTruth(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 42, ASes: 200})
	lacking, tested := 0, 0
	for _, as := range pop.ASes {
		f, err := testAS(as, 42)
		if err != nil {
			t.Fatalf("%v: %v", as.ASN, err)
		}
		if as.DSAV && f.lacksDSAV {
			t.Errorf("%v deploys DSAV but is told it lacks DSAV: %v", as.ASN, f.penetrated)
		}
		if as.FilterBogons && f.lacksBogonFilter {
			t.Errorf("%v filters bogons but is told it does not: %v", as.ASN, f.penetrated)
		}
		if f.reached > as.NumResolvers() || f.open > f.reached {
			t.Errorf("%v has %d resolvers but reports %d reached, %d open", as.ASN, as.NumResolvers(), f.reached, f.open)
		}
		if f.lacksDSAV {
			lacking++
		}
		if as.NumResolvers() > 0 {
			tested++
		}
	}
	if lacking == 0 {
		t.Fatalf("no AS of %d with resolvers was found lacking DSAV: the verdicts checked nothing", tested)
	}
}
