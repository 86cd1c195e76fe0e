package main

import (
	"strings"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	for _, tc := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7, 7}, 7, 7, 7},
		{[]float64{0.5, 2.25, 1.0, 9.0, 4.0}, 0.75, 2.25, 6.5},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.median || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", tc.xs, s, tc.q1, tc.median, tc.q3)
		}
	}
}

func TestSummarizeLeavesInputOrder(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("summarize reordered its input: %v", xs)
	}
}

func TestPairWinsCountsTiesForNeither(t *testing.T) {
	parent := []float64{1, 2, 3, 5}
	change := []float64{1, 1, 4, 4}
	cw, pw, n := pairWins(parent, change, false)
	if cw != 2 || pw != 1 || n != 4 {
		t.Errorf("lower-better wins = %d/%d of %d, want 2/1 of 4", cw, pw, n)
	}
	cw, pw, n = pairWins(parent, change, true)
	if cw != 1 || pw != 2 || n != 4 {
		t.Errorf("higher-better wins = %d/%d of %d, want 1/2 of 4", cw, pw, n)
	}
	// Unequal lengths pair only the common prefix.
	if _, _, n := pairWins(parent, change[:2], false); n != 2 {
		t.Errorf("pairs = %d, want 2", n)
	}
}

func seq(base, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5)
	}
	return xs
}

func TestDecide(t *testing.T) {
	parent := seq(100, 1, 10) // median 102, quartiles 100.75 and 103.25
	for _, tc := range []struct {
		name         string
		change       []float64
		higherBetter bool
		want         string
	}{
		{"clear drop", seq(90, 1, 10), false, "better"},
		{"clear rise", seq(110, 1, 10), false, "worse"},
		{"rise of a higher-better metric", seq(110, 1, 10), true, "better"},
		{"within the parent's spread", seq(99, 1, 10), false, "unresolved"},
		{"fewer than ten pairs", seq(90, 1, 9), false, "unresolved"},
	} {
		if got := decide(parent, tc.change, tc.higherBetter); got != tc.want {
			t.Errorf("%s: decide = %q, want %q", tc.name, got, tc.want)
		}
	}

	// Nine wins and one tie in ten pairs is nine tenths: a win. Eight
	// wins and two ties is not, though the parent wins no pair.
	change := seq(90, 1, 10)
	change[3] = parent[3]
	if got := decide(parent, change, false); got != "better" {
		t.Errorf("9 wins + 1 tie: decide = %q, want better", got)
	}
	change[4] = parent[4]
	if got := decide(parent, change, false); got != "unresolved" {
		t.Errorf("8 wins + 2 ties: decide = %q, want unresolved", got)
	}
}

func TestReadResults(t *testing.T) {
	in := strings.Join([]string{
		`{"workload":"survey","seed":1,"metrics":{"wall_s":4.5,"setup_s":0.02}}`,
		`goos: linux`,
		`abc1234 round=0 BenchmarkHeadlineReachability-2   	       3	1603840992 ns/op	611928920 B/op	 4455134 allocs/op`,
		`BenchmarkQueue 	12570914	        96.28 ns/op	       0 B/op	       0 allocs/op`,
		`{"workload":"survey","seed":2,"metrics":{"wall_s":4.7,"setup_s":0.03}}`,
	}, "\n")
	rs, err := readResults(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := rs["survey"]["wall_s"]; len(got) != 2 || got[0] != 4.5 || got[1] != 4.7 {
		t.Errorf("survey wall_s = %v", got)
	}
	if got := rs["BenchmarkHeadlineReachability"]["ns/op"]; len(got) != 1 || got[0] != 1603840992 {
		t.Errorf("headline ns/op = %v", got)
	}
	if got := rs["BenchmarkQueue"]["allocs/op"]; len(got) != 1 || got[0] != 0 {
		t.Errorf("queue allocs/op = %v", got)
	}
}
