package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	doors "repro"
	"repro/internal/netsim"
)

// probeNames lists the layer probes in the order probes() builds them.
var probeNames = []string{
	"packet_build", "packet_decode", "dnswire_pack", "dnswire_unpack",
	"trie_lookup", "eventq_cycle", "zone_respond", "detrand_rand",
	"hitrun_codec", "runs_merge",
}

// perLayer lists the metrics of a traced run.
func perLayer() []metricDef {
	var defs []metricDef
	for _, s := range stages {
		defs = append(defs,
			metricDef{s + ".self_s", "s", "lower"},
			metricDef{s + ".alloc_mb", "MB", "lower"},
			metricDef{s + ".allocs", "count", "lower"})
	}
	defs = append(defs,
		metricDef{"net_run.events_per_s", "1/s", "higher"},
		metricDef{"trace.coverage", "ratio", "higher"},
		metricDef{"trace.overhead", "ratio", "lower"},
		metricDef{"eventq.events", "count", "lower"},
		metricDef{"netsim.delivered", "count", "lower"},
		metricDef{"netsim.dropped", "count", "lower"},
		metricDef{"netsim.drop.no_host", "count", "lower"},
		metricDef{"netsim.drop.dsav", "count", "lower"},
		metricDef{"netsim.drop.chaos", "count", "lower"},
		metricDef{"netsim.drop.malformed", "count", "lower"},
		metricDef{"netsim.delivered_frac", "ratio", "higher"},
		metricDef{"resolver.client_queries", "count", "lower"},
		metricDef{"resolver.upstream_queries", "count", "lower"},
		metricDef{"resolver.timeouts", "count", "lower"},
		metricDef{"resolver.crashes", "count", "lower"},
		metricDef{"scanner.probes_sent", "count", "lower"},
		metricDef{"scanner.followup_queries", "count", "lower"},
		metricDef{"scanner.hits", "count", "higher"},
		metricDef{"scanner.hits_per_probe", "ratio", "higher"},
		metricDef{"fold.run_files", "count", "lower"},
		metricDef{"fold.run_bytes", "B", "lower"},
		metricDef{"runtime.gc_cpu_frac", "ratio", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
	)
	for _, p := range probeNames {
		defs = append(defs,
			metricDef{"probe." + p + ".ns", "ns", "lower"},
			metricDef{"probe." + p + ".allocs", "count", "lower"})
	}
	return defs
}

// minCoverage is the least share of the traced wall time the stage
// spans must account for; a replay below it fails its output check,
// since time it cannot attribute would be missing from every stage.
const minCoverage = 0.95

// coverage is the stages' summed self time over the traced wall time.
func coverage(tr *tracer, totals map[string]cost) float64 {
	var covered time.Duration
	for _, s := range stages {
		covered += totals[s].self
	}
	root := tr.spans[0]
	return covered.Seconds() / (root.end - root.start).Seconds()
}

// gcMetrics are the runtime counters behind runtime.gc_cpu_frac and
// runtime.gc_cycles.
var gcMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() (gcCPU, totalCPU float64, cycles uint64) {
	metrics.Read(gcMetrics)
	return gcMetrics[0].Value.Float64(), gcMetrics[1].Value.Float64(), gcMetrics[2].Value.Uint64()
}

// traced is the traced run. It runs on one processor, so that the
// replay — which simulates one shard at a time to attribute allocation
// to stages — and the untraced reference it is compared with do the
// same work on the same resources. It times the layer probes once,
// then, until the budget is spent (at least once), runs the untraced
// reference (population, doors.RunSurveyOn, rendering) and the traced
// replay, checks both outputs and that their Report digests agree, and
// samples every per-layer metric.
func traced(wl workload, seed int64, budget time.Duration) (*runStats, error) {
	runtime.GOMAXPROCS(1)
	cfg := wl.config(seed, wl.ases)
	st := &runStats{}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := newProbeInputs(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("probe inputs: %w", err)
	}
	for _, p := range in.probes(dir) {
		r := runProbe(p)
		st.add("probe."+r.name+".ns", r.ns)
		st.add("probe."+r.name+".allocs", r.allocs)
	}

	chk := &check{targets: wl.targets}
	st.targets = chk.targets
	var last *tracer
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := doors.RunSurveyOn(population(cfg), cfg)
		if err == nil {
			render(s.Report)
		}
		refWall := time.Since(t0)
		st.attempted++
		if why := chk.verify(outcome(s, err)); why != "" {
			st.failures = append(st.failures, "untraced: "+why)
		}

		runtime.GC()
		spill, err := os.MkdirTemp(dir, "replay-")
		if err != nil {
			return nil, err
		}
		gc0, cpu0, cycles0 := readGC()
		tr := newTracer()
		r, rp, err := replay(tr, cfg, spill)
		gc1, cpu1, cycles1 := readGC()
		os.RemoveAll(spill)
		st.attempted++
		o := surveyOutcome{err: err, targets: rp.counts.scanner.TargetsAdmitted}
		if err == nil {
			o.reachable, o.digest = r.V4.ReachableAddrs, reportDigest(r)
		}
		if why := chk.verify(o); why != "" {
			st.failures = append(st.failures, "replay: "+why)
		}
		if err != nil {
			continue
		}
		if c := coverage(tr, tr.totals()); c < minCoverage {
			st.failures = append(st.failures, fmt.Sprintf("replay: stages cover %.3f of the traced wall time, want at least %g", c, minCoverage))
		}
		addLayerMetrics(st, tr, rp.counts, refWall)
		st.add("runtime.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0))
		st.add("runtime.gc_cycles", float64(cycles1-cycles0))
		last = tr
	}
	st.digest = chk.digest
	if last != nil {
		printSpans(os.Stderr, last)
	}
	return st, nil
}

// addLayerMetrics samples the stage spans and layer counters of one
// replay. refWall is the untraced reference's wall time.
func addLayerMetrics(st *runStats, tr *tracer, lc layerCounts, refWall time.Duration) {
	totals := tr.totals()
	for _, s := range stages {
		t := totals[s]
		st.add(s+".self_s", t.self.Seconds())
		st.add(s+".alloc_mb", float64(t.bytes)/1e6)
		st.add(s+".allocs", float64(t.allocs))
	}
	root := tr.spans[0]
	wall := root.end - root.start
	st.add("net_run.events_per_s", float64(lc.events)/totals["net_run"].self.Seconds())
	st.add("trace.coverage", coverage(tr, totals))
	st.add("trace.overhead", wall.Seconds()/refWall.Seconds()-1)

	dropped := uint64(0)
	for _, n := range lc.drops {
		dropped += n
	}
	rs, ss := lc.resolver, lc.scanner
	for name, v := range map[string]float64{
		"eventq.events":             float64(lc.events),
		"netsim.delivered":          float64(lc.delivered),
		"netsim.dropped":            float64(dropped),
		"netsim.drop.no_host":       float64(lc.drops[netsim.DropNoHost]),
		"netsim.drop.dsav":          float64(lc.drops[netsim.DropDSAV]),
		"netsim.drop.chaos":         float64(lc.drops[netsim.DropChaos]),
		"netsim.drop.malformed":     float64(lc.drops[netsim.DropMalformed]),
		"netsim.delivered_frac":     float64(lc.delivered) / float64(lc.delivered+dropped),
		"resolver.client_queries":   float64(rs.ClientQueries),
		"resolver.upstream_queries": float64(rs.UpstreamQueries),
		"resolver.timeouts":         float64(rs.Timeouts),
		"resolver.crashes":          float64(rs.Crashes),
		"scanner.probes_sent":       float64(ss.ProbesSent),
		"scanner.followup_queries":  float64(ss.FollowUpQueries),
		"scanner.hits":              float64(ss.HitsObserved),
		"scanner.hits_per_probe":    float64(ss.HitsObserved) / float64(ss.ProbesSent),
		"fold.run_files":            float64(lc.runFiles),
		"fold.run_bytes":            float64(lc.runBytes),
	} {
		st.add(name, v)
	}
}
