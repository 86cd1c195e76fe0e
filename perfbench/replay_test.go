package main

import (
	"encoding/json"
	"os"
	"testing"

	doors "repro"
)

// testASes keeps the replay test small: a few dozen ASes per workload.
const testASes = 30

// TestReplayMatchesRunSurveyOn pins the traced replay to the engine: on
// every workload its Report must be byte-identical to doors.RunSurveyOn's
// and its stage spans must cover the traced wall time. An engine change
// the replay does not follow fails here rather than silently
// mis-attributing stages.
func TestReplayMatchesRunSurveyOn(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := wl.config(7, testASes)
			s, err := doors.RunSurveyOn(population(cfg), cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			r, rp, err := replay(tr, cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reportDigest(r), reportDigest(s.Report); got != want {
				t.Errorf("replay report digest %s, RunSurveyOn %s", got, want)
			}
			if got, want := rp.counts.scanner.TargetsAdmitted, s.Scanner.Stats.TargetsAdmitted; got != want {
				t.Errorf("replay admitted %d targets, RunSurveyOn %d", got, want)
			}
			if got, want := rp.counts.scanner, s.Scanner.Stats; got != want {
				t.Errorf("replay scanner stats %+v, RunSurveyOn %+v", got, want)
			}
			if got, want := rp.counts.resolver, s.ResolverStats; got != want {
				t.Errorf("replay resolver stats %+v, RunSurveyOn %+v", got, want)
			}
			totals := tr.totals()
			if c := coverage(tr, totals); c < minCoverage || c > 1 {
				t.Errorf("trace coverage %.4f, want within [%g, 1]", c, minCoverage)
			}
			for _, name := range stages {
				if _, ok := totals[name]; !ok {
					t.Errorf("no %s span", name)
				}
			}
			if cfg.Fold && rp.counts.runFiles == 0 {
				t.Error("fold replay wrote no run files")
			}
		})
	}
}

// TestProbesMatchNames checks that the probe list and the metric names
// derived from probeNames agree, and that every probe runs.
func TestProbesMatchNames(t *testing.T) {
	in, err := newProbeInputs(workloads[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := in.probes(t.TempDir())
	if len(ps) != len(probeNames) {
		t.Fatalf("%d probes, %d names", len(ps), len(probeNames))
	}
	for i, p := range ps {
		if p.name != probeNames[i] {
			t.Errorf("probe %d is %s, want %s", i, p.name, probeNames[i])
		}
		if done := p.run(1); done < 1 {
			t.Errorf("probe %s ran %d operations", p.name, done)
		}
	}
}

// benchmarkFile is the part of ../BENCHMARK.json these tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json lists
// exactly the workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bf.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, wl.name)
		}
	}
	sameMetrics(t, "end_to_end", bf.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", bf.PerLayer, perLayer())
}

func sameMetrics(t *testing.T, list string, got []benchmarkMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", list, len(got), len(want))
		return
	}
	for i, w := range want {
		if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
			t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", list, i, g, w)
		}
	}
}
