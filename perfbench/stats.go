package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

// summarize computes the median and the quartiles by the exclusive
// method, the default of Python's statistics.quantiles(xs, n=4), so a
// spread computed here matches one computed from the same values there.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	if len(s) == 0 {
		return out
	}
	out.Median = medianSorted(s)
	out.Q1, out.Q3 = quantileExclusive(s, 1), quantileExclusive(s, 3)
	return out
}

func median(xs []float64) float64 { return summarize(xs).Median }

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileExclusive returns the i-th of the three quartile cut points
// of sorted data (i in 1..3), interpolating at position i*(n+1)/4 and
// clamping to the data's ends.
func quantileExclusive(s []float64, i int) float64 {
	const parts = 4
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / parts
	j = max(1, min(j, n-1))
	delta := float64(i*m - j*parts)
	return (s[j-1]*(parts-delta) + s[j]*delta) / parts
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.NaN()
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// pairWins counts, over the pairs (parent[i], change[i]), how often each
// side reads better in the metric's direction. Ties count for neither.
func pairWins(parent, change []float64, higherBetter bool) (changeWins, parentWins, pairs int) {
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		p, c := parent[i], change[i]
		if higherBetter {
			p, c = -p, -c
		}
		switch {
		case c < p:
			changeWins++
		case p < c:
			parentWins++
		}
	}
	return changeWins, parentWins, pairs
}

// minPairs is the fewest alternating pairs a verdict may rest on.
const minPairs = 10

// decide applies the A/B rule: a side wins only when it reads better in
// at least nine tenths of all pairs run (ties counting for neither) and
// the medians differ by more than the parent's interquartile distance.
// Anything else is "unresolved".
func decide(parent, change []float64, higherBetter bool) string {
	cw, pw, n := pairWins(parent, change, higherBetter)
	if n < minPairs {
		return "unresolved"
	}
	ps, cs := summarize(parent), summarize(change)
	if math.Abs(cs.Median-ps.Median) <= ps.Q3-ps.Q1 {
		return "unresolved"
	}
	improved := cs.Median < ps.Median
	if higherBetter {
		improved = !improved
	}
	switch {
	case improved && 10*cw >= 9*n:
		return "better"
	case !improved && 10*pw >= 9*n:
		return "worse"
	}
	return "unresolved"
}
