package loader_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/loader"
)

// TestCrossPackageFactFlow drives the standalone loader end to end
// over a scratch module in which p2 mutates p1's frozen registry after
// construction: the diagnostic in p2 exists only if p1's facts reached
// p2's pass through the loader's shared store and dependency-order
// re-run.
func TestCrossPackageFactFlow(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n\ngo 1.22\n")
	write("p1/p1.go", `// Package p1 owns the frozen registry.
package p1

//doors:frozen
type Registry struct {
	Vals map[int]int
}

// NewRegistry builds the registry.
func NewRegistry() *Registry {
	r := &Registry{Vals: map[int]int{}}
	r.Add(1, 1)
	return r
}

// Add is the construction API.
func (r *Registry) Add(k, v int) { r.Vals[k] = v }
`)
	write("p2/p2.go", `// Package p2 tampers with p1's registry after construction.
package p2

import "m/p1"

// Probe mutates the shared registry: both lines are findings.
func Probe(r *p1.Registry) {
	r.Add(2, 2)
	r.Vals[3] = 3
}
`)

	diags, err := loader.Run(dir, []string{"./..."}, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	var sawCall, sawWrite bool
	for _, d := range diags {
		if d.Analyzer != "frozenshare" {
			t.Errorf("unexpected %s diagnostic: %s: %s", d.Analyzer, d.Position, d.Message)
			continue
		}
		if !strings.HasSuffix(d.Position.Filename, filepath.Join("p2", "p2.go")) {
			t.Errorf("frozenshare diagnostic outside p2: %s: %s", d.Position, d.Message)
			continue
		}
		if strings.Contains(d.Message, "mutating method Registry.Add") {
			sawCall = true
		}
		if strings.Contains(d.Message, "write through frozen type Registry") {
			sawWrite = true
		}
	}
	if !sawCall || !sawWrite {
		t.Fatalf("cross-package fact flow broken: call=%v write=%v in %v", sawCall, sawWrite, diags)
	}
}

// TestFanOutGraphDiagnostics runs the loader over a wide graph — one
// fact-exporting base package, several independent leaves, and a top
// package whose finding depends on the base's lockguard facts — and
// pins the exact diagnostic count: every leaf is analyzed and reported,
// and base's facts reach top's pass.
func TestFanOutGraphDiagnostics(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n\ngo 1.22\n")
	write("base/base.go", `// Package base exports a guarded table.
package base

import "sync"

// Table pairs a mutex with the rows it guards.
type Table struct {
	Mu sync.Mutex
	//doors:guardedby Mu
	Rows map[string]int
}
`)
	// Independent leaves: no edges between them; each carries exactly
	// one golifetime finding.
	for i := 0; i < 6; i++ {
		write(fmt.Sprintf("leaf%d/leaf.go", i), fmt.Sprintf(`// Package leaf%d leaks a goroutine.
package leaf%d

// Fire spawns and forgets.
func Fire() {
	go func() {}()
}
`, i, i))
	}
	write("top/top.go", `// Package top violates base's guard contract.
package top

import (
	"m/base"
	_ "m/leaf0"
	_ "m/leaf1"
	_ "m/leaf2"
	_ "m/leaf3"
	_ "m/leaf4"
	_ "m/leaf5"
)

// Poke writes a guarded field lockless: a cross-package finding that
// only exists if base's GuardFact reached this package's pass.
func Poke(t *base.Table, k string) {
	t.Rows[k] = 1
}
`)

	diags, err := loader.Run(dir, []string{"./..."}, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 7 { // 6 leaks + 1 guarded write
		t.Fatalf("want 7 diagnostics, got %d: %v", len(diags), diags)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["golifetime"] != 6 || byAnalyzer["lockguard"] != 1 {
		t.Fatalf("want 6 golifetime + 1 lockguard diagnostics, got %v: %v", byAnalyzer, diags)
	}
}
