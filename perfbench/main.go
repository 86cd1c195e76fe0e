// Command perfbench is the repository's benchmark. Run from the
// repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload survey --seed 1 --seconds 20 --trace 0
//	perfbench compare parent.jsonl change.jsonl
//
// With --trace 0 it calls doors.RunSurveyOn on the workload until the
// time budget is spent and prints every end-to-end metric. With
// --trace 1 it replays the same survey stage by stage, next to an
// untraced reference run, and prints the per-stage, per-layer and probe
// metrics. Either way every survey's output is checked, and the last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics. The compare mode reads two sets of results and
// judges each (workload, metric) by the paired A/B rule in NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs bounds the benchmark's parallelism: two processors, the
// size of the machine the workloads were sized on.
const maxProcs = 2

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what --out appends for the compare mode: one run's metric
// medians, labelled with its workload and seed.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    int                `json:"trace"`
	Digest   string             `json:"digest"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "survey", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "time budget of the measured loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay, per-layer metrics")
	out := fs.String("out", "", "append this run's record to the named JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err != nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var st *runStats
	var defs []metricDef
	if *trace == 1 {
		st, err = traced(wl, *seed, budget)
		defs = perLayer()
	} else {
		runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
		st, err = measure(wl, *seed, budget)
		defs = endToEnd
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	fmt.Printf("perfbench workload=%s seed=%d ases=%d trace=%d targets=%d digest=%s\n",
		wl.name, *seed, wl.ases, *trace, st.targets, st.digest)
	res := result{Attempted: st.attempted, Failed: len(st.failures), Metrics: make(map[string]metricValue)}
	res.Correct = res.Failed == 0
	rec := record{Workload: wl.name, Seed: *seed, Trace: *trace, Digest: st.digest, Correct: res.Correct, Metrics: make(map[string]float64)}
	for _, d := range defs {
		xs := st.samples[d.name]
		if len(xs) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		s := summarize(xs)
		fmt.Printf("  %-28s %14.6g %-6s  q1 %-12.6g q3 %-12.6g n=%d\n", d.name, s.Median, d.unit, s.Q1, s.Q3, s.N)
		res.Metrics[d.name] = metricValue{Value: s.Median, Unit: d.unit}
		rec.Metrics[d.name] = s.Median
	}
	fmt.Printf("  %-28s %14.6g %-6s  (%d of %d surveys failed)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	for _, f := range st.failures {
		fmt.Println("  failure:", f)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSpans writes the span tree, one span per line.
func printSpans(w io.Writer, t *tracer) {
	self := t.selfCosts()
	for i, s := range t.spans {
		fmt.Fprintf(w, "span %d parent=%d %s shard=%d start_ms=%.3f dur_ms=%.3f self_ms=%.3f alloc_mb=%.3f allocs=%d\n",
			i, s.parent, s.name, s.shard, ms(s.start), ms(s.end-s.start), ms(self[i].self), float64(self[i].bytes)/1e6, self[i].allocs)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// higherBetter reports a metric's direction: from the benchmark's own
// tables, else by unit (a go test rate such as MB/s), else lower.
func higherBetter(name string) bool {
	for _, d := range append(endToEnd, perLayer()...) {
		if d.name == name {
			return d.better == "higher"
		}
	}
	return strings.HasSuffix(name, "/s")
}
