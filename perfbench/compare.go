package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// resultSet holds one side of an A/B comparison: per workload, per
// metric, the values of its runs in the order they were made.
type resultSet map[string]map[string][]float64

func (rs resultSet) add(workload, metric string, v float64) {
	if rs[workload] == nil {
		rs[workload] = make(map[string][]float64)
	}
	rs[workload][metric] = append(rs[workload][metric], v)
}

// benchLine matches a `go test -bench` result line, wherever it starts.
var benchLine = regexp.MustCompile(`(Benchmark[^\s]*?)(?:-\d+)?\s+\d+\s+(.*)$`)

// readResults reads a result set: JSON lines written by --out, or the
// output of `go test -bench` (each Benchmark line is one run, its
// name the workload and each "value unit" pair a metric).
func readResults(r io.Reader) (resultSet, error) {
	rs := make(resultSet)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "{") {
			var rec record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, fmt.Errorf("bad record %q: %w", line, err)
			}
			for name, v := range rec.Metrics {
				rs.add(rec.Workload, name, v)
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad benchmark value %q in %q", f[i], line)
			}
			rs.add(m[1], f[i+1], v)
		}
	}
	return rs, sc.Err()
}

func readResultFile(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readResults(f)
}

// compareMain prints, for every (workload, metric) both sets hold, each
// side's median and quartiles, the paired win counts and the verdict.
// The i-th run of a workload in one set pairs with the i-th in the
// other, so the sets should come from alternating runs.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT CHANGE")
		return 2
	}
	parent, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	change, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	compare(w, parent, change)
	return 0
}

func compare(w io.Writer, parent, change resultSet) {
	fmt.Fprintf(w, "%-30s %-24s %-40s %-40s %8s %9s  %s\n",
		"workload", "metric", "parent median [q1 q3] n", "change median [q1 q3] n", "delta", "wins c/p", "verdict")
	for _, wl := range sortedKeys(parent) {
		for _, m := range sortedKeys(parent[wl]) {
			b, ok := change[wl][m]
			if !ok {
				continue
			}
			a := parent[wl][m]
			hb := higherBetter(m)
			cw, pw, n := pairWins(a, b, hb)
			sa, sb := summarize(a), summarize(b)
			fmt.Fprintf(w, "%-30s %-24s %-40s %-40s %+7.2f%% %4d/%-4d  %s (%d pairs)\n",
				wl, m, fmtSummary(sa), fmtSummary(sb), 100*(sb.Median/sa.Median-1), cw, pw, decide(a, b, hb), n)
		}
	}
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.7g [%.7g %.7g] %d", s.Median, s.Q1, s.Q3, s.N)
}
