package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/loader"
)

// vetFinding matches one diagnostic line of go vet's output.
var vetFinding = regexp.MustCompile(`^\S+\.go:\d+:\d+: `)

// TestDriversAgree pins that the two drivers — the vettool protocol
// `make lint` uses and the standalone loader behind `doorsvet ./...`
// and `-pragmas` — report the same findings. The fixture module
// imports no standard-library package, so vet analyzes nothing
// outside it; its findings need cross-package facts (p2 mutating p1's
// frozen registry) and a single-package check (leaf's leaked
// goroutine).
func TestDriversAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds doorsvet and runs go vet")
	}
	bin := filepath.Join(t.TempDir(), "doorsvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building doorsvet: %v\n%s", err, out)
	}

	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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
	write("leaf/leaf.go", `// Package leaf leaks a goroutine.
package leaf

// Fire spawns and forgets.
func Fire() {
	go func() {}()
}
`)

	diags, err := loader.Run(dir, []string{"./..."}, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	var standalone []string
	for _, d := range diags {
		rel, err := filepath.Rel(dir, d.Position.Filename)
		if err != nil {
			t.Fatal(err)
		}
		d.Position.Filename = filepath.ToSlash(rel)
		standalone = append(standalone, d.Position.String()+": "+d.Message)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if _, ok := err.(*exec.ExitError); err != nil && !ok {
		t.Fatalf("go vet: %v", err)
	}
	var vetted []string
	for _, line := range strings.Split(string(out), "\n") {
		if vetFinding.MatchString(line) {
			vetted = append(vetted, filepath.ToSlash(line))
		}
	}
	sort.Strings(vetted)
	sort.Strings(standalone)

	if len(standalone) != 3 ||
		!strings.HasPrefix(standalone[0], "leaf/leaf.go:6:") ||
		!strings.HasPrefix(standalone[1], "p2/p2.go:8:") ||
		!strings.HasPrefix(standalone[2], "p2/p2.go:9:") {
		t.Fatalf("standalone: want the leaf leak and p2's two frozen writes, got %d findings:\n%s",
			len(standalone), strings.Join(standalone, "\n"))
	}
	if !reflect.DeepEqual(vetted, standalone) {
		t.Fatalf("drivers disagree\ngo vet -vettool:\n%s\nloader.Run:\n%s\nvet output:\n%s",
			strings.Join(vetted, "\n"), strings.Join(standalone, "\n"), out)
	}
}
