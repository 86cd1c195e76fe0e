// Package ditl generates the synthetic resolver population that stands
// in for the DNS-OARC "Day in the Life" target list (§3.1). The real
// study extracted ~12M source addresses from root-server traces; here a
// seeded generator produces a population of ASes and resolver targets
// whose joint distributions (DSAV deployment, open/closed ACLs,
// forwarding, OS and DNS-software mix, source-port allocation
// strategies, QNAME minimization) are calibrated from the paper's
// published aggregate results, so the full measurement and analysis
// pipeline sees realistic variety and reproduces the paper's shapes.
package ditl

import (
	"fmt"
	"math/rand"
)

// Params tunes the generated population. Zero values select the
// defaults noted on each field; fractions are probabilities in [0, 1].
type Params struct {
	// Seed drives all generation randomness.
	Seed int64
	// ASes is the number of target ASes (default 400).
	ASes int

	// DeadTargetMean is the mean number of non-responsive target
	// addresses per AS — DITL sources that are no longer resolvers
	// (§3.6.2). Default 26.
	DeadTargetMean int
	// LiveResolverMean is the mean number of live resolvers per AS.
	// Default 2 (plus one guaranteed).
	LiveResolverMean int

	// V6ASFraction is the fraction of ASes announcing IPv6 space
	// (7,904/53,922 ≈ 0.15 in the paper). Default 0.15.
	V6ASFraction float64
	// ForwarderFraction is the fraction of live resolvers that forward
	// to an upstream instead of recursing (§5.4 found 47% of IPv4
	// targets forwarding). Default 0.45; v6-capable resolvers forward
	// far less often (the paper found only 16% of v6 targets forwarding).
	ForwarderFraction float64
	// ForwarderOpenFraction is the open-ACL rate among forwarders
	// (derived in DESIGN.md from §5.1 vs Table 4). Default 0.58.
	ForwarderOpenFraction float64
	// QnameMinFraction is the fraction of live resolvers doing QNAME
	// minimization (§3.6.4). Default 0.035.
	QnameMinFraction float64
	// QnameMinStrictFraction is the fraction of those that halt on
	// NXDOMAIN (55% in §3.6.4). Default 0.55.
	QnameMinStrictFraction float64
	// StrictClosedFraction is the fraction of live resolvers whose ACLs
	// match none of the spoofed sources (the REFUSED population of
	// §3.8). Default 0.05.
	StrictClosedFraction float64
	// IDSASFraction is the fraction of ASes whose IDS logs spoofed
	// queries for later human inspection (§3.6.3). Default 0.01.
	IDSASFraction float64
	// MiddleboxASFraction is the fraction of ASes with a transparent
	// DNS-intercepting middlebox (§3.6.1). Default 0.012.
	MiddleboxASFraction float64
	// BogonFilterFraction is the fraction of ASes filtering
	// special-purpose sources at their border. Default 0.96 (martian
	// filtering is widespread, which is why the paper's private and
	// loopback categories reach so few targets).
	BogonFilterFraction float64
	// DeadTargetMeanV6 is the mean dead-IPv6-target count per v6 AS
	// (default 24).
	DeadTargetMeanV6 int
}

// Validate rejects what no population can be built from: a negative
// AS count or mean, or a fraction outside [0, 1] (NaN included). The
// error names the field.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ASes", p.ASes}, {"DeadTargetMean", p.DeadTargetMean},
		{"LiveResolverMean", p.LiveResolverMean}, {"DeadTargetMeanV6", p.DeadTargetMeanV6},
	} {
		if f.v < 0 {
			return fmt.Errorf("ditl: %s = %d; want 0 (the default) or a positive count", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"V6ASFraction", p.V6ASFraction}, {"ForwarderFraction", p.ForwarderFraction},
		{"ForwarderOpenFraction", p.ForwarderOpenFraction}, {"QnameMinFraction", p.QnameMinFraction},
		{"QnameMinStrictFraction", p.QnameMinStrictFraction}, {"StrictClosedFraction", p.StrictClosedFraction},
		{"IDSASFraction", p.IDSASFraction}, {"MiddleboxASFraction", p.MiddleboxASFraction},
		{"BogonFilterFraction", p.BogonFilterFraction},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("ditl: %s = %v; want a fraction in [0, 1]", f.name, f.v)
		}
	}
	return nil
}

func (p Params) withDefaults() Params {
	if p.ASes == 0 {
		p.ASes = 400
	}
	if p.DeadTargetMean == 0 {
		p.DeadTargetMean = 26
	}
	if p.LiveResolverMean == 0 {
		p.LiveResolverMean = 2
	}
	if p.V6ASFraction == 0 {
		p.V6ASFraction = 0.15
	}
	if p.ForwarderFraction == 0 {
		p.ForwarderFraction = 0.45
	}
	if p.ForwarderOpenFraction == 0 {
		p.ForwarderOpenFraction = 0.58
	}
	if p.QnameMinFraction == 0 {
		p.QnameMinFraction = 0.035
	}
	if p.QnameMinStrictFraction == 0 {
		p.QnameMinStrictFraction = 0.55
	}
	if p.StrictClosedFraction == 0 {
		p.StrictClosedFraction = 0.05
	}
	if p.IDSASFraction == 0 {
		p.IDSASFraction = 0.01
	}
	if p.MiddleboxASFraction == 0 {
		p.MiddleboxASFraction = 0.012
	}
	if p.BogonFilterFraction == 0 {
		p.BogonFilterFraction = 0.96
	}
	if p.DeadTargetMeanV6 == 0 {
		p.DeadTargetMeanV6 = 24
	}
	return p
}

// countryProfile calibrates per-country behaviour so Tables 1 and 2
// reproduce: weight is the share of ASes assigned to the country;
// dsavLack is the probability an AS there lacks DSAV; liveBoost scales
// the live-resolver count (the Algeria/Morocco effect of Table 2: a
// large share of targeted addresses actually responding); openBoost
// shifts resolvers toward open ACLs.
type countryProfile struct {
	code      string
	weight    float64
	dsavLack  float64
	liveBoost float64
	openBoost float64
}

// countryProfiles is calibrated from Tables 1-2: the US has the most
// ASes but a below-average reachable share (28%); Brazil, Russia, and
// Ukraine are over half; Algeria and Morocco have few ASes but very
// high per-address reachability.
var countryProfiles = []countryProfile{
	{"US", 0.31, 0.41, 1.0, 1.0},
	{"BR", 0.12, 0.72, 1.2, 1.1},
	{"RU", 0.09, 0.72, 1.8, 1.2},
	{"DE", 0.046, 0.49, 1.0, 1.0},
	{"GB", 0.042, 0.46, 1.1, 1.0},
	{"PL", 0.038, 0.65, 1.3, 1.1},
	{"UA", 0.032, 0.76, 2.0, 1.3},
	{"IN", 0.03, 0.54, 1.8, 1.4},
	{"AU", 0.029, 0.45, 1.1, 1.0},
	{"CA", 0.028, 0.49, 0.9, 1.0},
	{"FR", 0.028, 0.48, 1.0, 1.0},
	{"NL", 0.025, 0.51, 1.0, 1.0},
	{"JP", 0.024, 0.43, 0.9, 1.0},
	{"CN", 0.022, 0.58, 1.5, 1.3},
	{"KR", 0.018, 0.55, 1.3, 1.2},
	{"IT", 0.018, 0.53, 1.1, 1.0},
	{"ES", 0.016, 0.51, 1.0, 1.0},
	{"MX", 0.015, 0.61, 1.2, 1.1},
	{"AR", 0.014, 0.65, 1.2, 1.1},
	{"ZA", 0.012, 0.59, 1.2, 1.1},
	{"DZ", 0.004, 0.53, 3.0, 1.8},
	{"MA", 0.005, 0.58, 2.6, 1.7},
	{"SZ", 0.002, 0.92, 1.6, 1.3},
	{"BZ", 0.005, 0.53, 1.5, 1.2},
	{"BF", 0.003, 0.56, 1.5, 1.2},
	{"XK", 0.002, 0.73, 1.4, 1.2},
	{"BA", 0.008, 0.67, 1.3, 1.1},
	{"SC", 0.005, 0.57, 1.4, 1.2},
	{"WF", 0.001, 0.83, 1.3, 1.2},
	{"CI", 0.004, 0.66, 1.5, 1.2},
}

// pickCountry samples a country by weight.
func pickCountry(rng *rand.Rand) countryProfile {
	total := 0.0
	for _, c := range countryProfiles {
		total += c.weight
	}
	x := rng.Float64() * total
	for _, c := range countryProfiles {
		x -= c.weight
		if x <= 0 {
			return c
		}
	}
	return countryProfiles[0]
}

// geomRand draws a geometric-ish count with the given mean (≥0).
func geomRand(rng *rand.Rand, mean int) int {
	if mean <= 0 {
		return 0
	}
	p := 1.0 / float64(mean+1)
	n := 0
	for rng.Float64() > p && n < mean*10 {
		n++
	}
	return n
}
