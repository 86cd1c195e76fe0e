package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// findingLine is the shape scripts/ci-lint.sh turns into a GitHub
// annotation once it strips the workspace prefix:
// "path/file.go:line:col: message".
var findingLine = regexp.MustCompile(`^([^ :]+\.go):([0-9]+):([0-9]+): (.*)$`)

// TestDriversAgree runs the built doorsvet binary the way `make lint`
// does and pins what the CI wrapper relies on: exit status 1 and
// exactly the fixture module's three findings, each in the
// file.go:line:col: message shape, then exit status 0 and no output on
// a clean module. Two of the findings need cross-package facts (p2
// mutating p1's frozen registry) and one a single-package check
// (leaf's leaked goroutine).
func TestDriversAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds doorsvet and runs it over scratch modules")
	}
	bin := filepath.Join(t.TempDir(), "doorsvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building doorsvet: %v\n%s", err, out)
	}

	dir := writeModule(t, map[string]string{
		"p1/p1.go": `// Package p1 owns the frozen registry.
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
`,
		"p2/p2.go": `// Package p2 tampers with p1's registry after construction.
package p2

import "m/p1"

// Probe mutates the shared registry: both lines are findings.
func Probe(r *p1.Registry) {
	r.Add(2, 2)
	r.Vals[3] = 3
}
`,
		"leaf/leaf.go": `// Package leaf leaks a goroutine.
package leaf

// Fire spawns and forgets.
func Fire() {
	go func() {}()
}
`,
	})
	out, status := runDoorsvet(t, bin, dir)
	if status != 1 {
		t.Fatalf("exit status %d on a module with findings, want 1:\n%s", status, out)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		m := findingLine.FindStringSubmatch(strings.TrimPrefix(line, dir+string(filepath.Separator)))
		if m == nil {
			t.Fatalf("output line %q is not file.go:line:col: message", line)
		}
		got = append(got, filepath.ToSlash(m[1])+":"+m[2])
	}
	if want := []string{"leaf/leaf.go:6", "p2/p2.go:8", "p2/p2.go:9"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("findings at %v, want the leaf leak and p2's two frozen writes at %v:\n%s", got, want, out)
	}

	clean := writeModule(t, map[string]string{
		"ok/ok.go": `// Package ok has nothing to report.
package ok

// Sum adds.
func Sum(a, b int) int { return a + b }
`,
	})
	if out, status := runDoorsvet(t, bin, clean); status != 0 || out != "" {
		t.Fatalf("exit status %d on a clean module, want 0 and no output:\n%s", status, out)
	}
}

// writeModule writes files into a fresh module m and returns its
// directory, symlinks resolved so it matches the paths go list reports.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files["go.mod"] = "module m\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runDoorsvet runs bin ./... in dir and returns its combined output and
// exit status.
func runDoorsvet(t *testing.T, bin, dir string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	default:
		t.Fatalf("running doorsvet: %v", err)
		return "", 0
	}
}
