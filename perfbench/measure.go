package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	doors "repro"
	"repro/internal/analysis"
	"repro/internal/ditl"
)

// metricDef names one reported metric. The end-to-end and per-layer
// tables here and the lists in BENCHMARK.json must agree (a test checks).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"targets_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"alloc_bytes_per_target", "B", "lower"},
	{"allocs_per_target", "count", "lower"},
}

// setupReps is how often a run synthesizes the population; setup_s is
// the median.
const setupReps = 9

// minIterations is the fewest surveys a run measures, however short its
// time budget, so that every reported median rests on several samples.
const minIterations = 3

// check is the output check every survey of a run must pass.
type check struct {
	targets int    // admitted targets the survey must report
	digest  string // Report digest of the run's first survey
}

// surveyOutcome is what the output check reads from one survey.
type surveyOutcome struct {
	err                error
	targets, reachable int
	digest             string
}

func outcome(s *doors.Survey, err error) surveyOutcome {
	if err != nil {
		return surveyOutcome{err: err}
	}
	return surveyOutcome{
		targets:   s.Scanner.Stats.TargetsAdmitted,
		reachable: s.Report.V4.ReachableAddrs,
		digest:    reportDigest(s.Report),
	}
}

// verify returns why a survey's output is wrong, or "". The first
// digest it sees becomes the one later surveys must match.
func (c *check) verify(o surveyOutcome) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.targets != c.targets:
		return fmt.Sprintf("admitted %d targets, want %d", o.targets, c.targets)
	case o.reachable == 0:
		return "survey reached no IPv4 target"
	case c.digest == "":
		c.digest = o.digest
	case o.digest != c.digest:
		return fmt.Sprintf("report digest %s differs from the run's first %s", o.digest, c.digest)
	}
	return ""
}

// reportDigest is the SHA-256 of the JSON-encoded Report.
func reportDigest(r *analysis.Report) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// heapMetrics are the runtime/metrics counters the benchmark reads.
var heapMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
}

// allocCounter reads cumulative heap allocation: bytes, and objects
// counted the way runtime.MemStats.Mallocs counts them (tiny
// allocations included).
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	s := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		s[i].Name = name
	}
	return &allocCounter{s: s}
}

func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64() + a.s[2].Value.Uint64()
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapWatch polls the live heap while a survey runs and keeps the
// highest value seen.
type heapWatch struct {
	stop chan struct{}
	peak chan uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the poll, waits for the poller to exit, and returns the peak
// in bytes.
func (h *heapWatch) Stop() uint64 {
	close(h.stop)
	return <-h.peak
}

// runStats is what one benchmark run produced: per-iteration samples of
// each metric, attempts, failures, and the output digest.
type runStats struct {
	samples   map[string][]float64
	attempted int
	failures  []string
	digest    string
	targets   int
}

func (r *runStats) add(name string, v float64) {
	if r.samples == nil {
		r.samples = make(map[string][]float64)
	}
	r.samples[name] = append(r.samples[name], v)
}

// measure is the untraced run: it synthesizes the workload's population
// setupReps times, then calls doors.RunSurveyOn until the time budget is
// spent (at least minIterations times), sampling every end-to-end metric
// per survey and checking every survey's output.
func measure(wl workload, seed int64, budget time.Duration) (*runStats, error) {
	cfg := wl.config(seed, wl.ases)
	st := &runStats{}
	var pop ditl.Pop
	for i := 0; i < setupReps; i++ {
		pop = nil // let the previous synthesis be collected before timing the next
		runtime.GC()
		t0 := time.Now()
		pop = population(cfg)
		st.add("setup_s", time.Since(t0).Seconds())
	}
	chk := &check{targets: wl.targets}
	st.targets = chk.targets

	ac := newAllocCounter()
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start) < budget; i++ {
		runtime.GC()
		bytes0, objs0 := ac.read()
		cpu0 := cpuSeconds()
		hw := watchHeap()
		t0 := time.Now()
		s, err := doors.RunSurveyOn(pop, cfg)
		wall := time.Since(t0)
		peak := hw.Stop()
		cpu := cpuSeconds() - cpu0
		bytes1, objs1 := ac.read()

		st.attempted++
		if why := chk.verify(outcome(s, err)); why != "" {
			st.failures = append(st.failures, why)
		}
		n := float64(chk.targets)
		st.add("wall_s", wall.Seconds())
		st.add("targets_per_s", n/wall.Seconds())
		st.add("cpu_s", cpu)
		st.add("peak_heap_mb", float64(peak)/1e6)
		st.add("alloc_bytes_per_target", float64(bytes1-bytes0)/n)
		st.add("allocs_per_target", float64(objs1-objs0)/n)
	}
	st.digest = chk.digest
	return st, nil
}
