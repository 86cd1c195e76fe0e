// Package analysistest runs doorsvet analyzers over golden fixture
// packages and checks their diagnostics against expectations written in
// the fixture source, mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	rand.New(rand.NewSource(1)) // want `sequential math/rand stream`
//
// A want comment may hold several expectations, and an expectation may
// assert an exported fact instead of a diagnostic by naming the object
// the fact is attached to:
//
//	func (r *Registry) Add(...) // want Add:`mutating`
//
// Fact expectations match when an object with that name is declared on
// the comment's line and carries a fact whose String() matches the
// pattern. Unexpected facts are not errors — fixtures assert the facts
// they care about, not the closure of propagation (a deliberate
// divergence from x/tools, which requires exhaustive fact listings).
//
// Fixtures live in a GOPATH-style tree <root>/src/<importpath>/*.go so
// that fixture packages can import stub dependencies (for example a
// fake repro/internal/detrand) placed in the same tree. Standard
// library imports are type-checked from $GOROOT source, so the harness
// needs no network and no pre-built export data.
//
// RunWith runs a whole analyzer stack over every fixture package in
// dependency order with one shared fact store, so cross-package fact
// flow (p2 importing p1's frozen type) is exercised exactly as the
// loader exercises it.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// Run applies a single analyzer to the fixture packages under
// root/src and reports unexpected or missing diagnostics through t.
func Run(t *testing.T, root string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	RunWith(t, root, []*analysis.Analyzer{a}, pkgs...)
}

// RunWith applies an analyzer stack, in order, to every fixture
// package reachable from pkgs — dependencies first, sharing one fact
// store — and checks the expectations of the named packages.
// Diagnostics in dependency packages that were not named are dropped,
// like the loader driver's facts-only dependency passes.
func RunWith(t *testing.T, root string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	if err := analysis.Validate(analyzers); err != nil {
		t.Fatal(err)
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	ld := &fixtureLoader{
		src:    filepath.Join(absRoot, "src"),
		fset:   token.NewFileSet(),
		loaded: make(map[string]*fixturePkg),
	}
	ld.source = importer.ForCompiler(ld.fset, "source", nil)

	requested := make(map[string]bool)
	for _, pkgPath := range pkgs {
		requested[pkgPath] = true
		if _, err := ld.load(pkgPath); err != nil {
			t.Fatalf("loading fixture %s: %v", pkgPath, err)
		}
	}

	facts := analysis.NewFacts()
	diags := make(map[string][]labeledDiag) // package path -> findings
	for _, pkgPath := range ld.order {
		fp := ld.loaded[pkgPath]
		for _, a := range analyzers {
			a := a
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      ld.fset,
				Files:     fp.files,
				Pkg:       fp.pkg,
				TypesInfo: fp.info,
				Dir:       filepath.Join(ld.src, filepath.FromSlash(pkgPath)),
				Report: func(d analysis.Diagnostic) {
					diags[fp.pkg.Path()] = append(diags[fp.pkg.Path()], labeledDiag{a.Name, d})
				},
			}
			facts.Bind(pass)
			if _, err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkgPath, err)
			}
		}
	}

	for _, pkgPath := range pkgs {
		check(t, ld.fset, ld.loaded[pkgPath], diags[pkgPath], facts, pkgPath)
	}
}

type labeledDiag struct {
	analyzer string
	d        analysis.Diagnostic
}

type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// fixtureLoader type-checks fixture packages, resolving imports first
// against the fixture tree and then against $GOROOT source. order
// records completion order, which is a topological order of the
// fixture packages (imports type-check recursively before the
// importer finishes).
type fixtureLoader struct {
	src    string
	fset   *token.FileSet
	source types.Importer
	loaded map[string]*fixturePkg
	order  []string
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if fp, err := l.load(path); err == nil {
		return fp.pkg, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return l.source.Import(path)
}

func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if fp, ok := l.loaded[path]; ok {
		return fp, nil
	}
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", path, dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{Importer: l}
	pkg, err := tc.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	fp := &fixturePkg{pkg: pkg, files: files, info: info}
	l.loaded[path] = fp
	l.order = append(l.order, path)
	return fp, nil
}

// expectation is one `// want ...` token in a fixture file. A non-empty
// name makes it a fact expectation on the object of that name declared
// at the comment's line; otherwise it expects a diagnostic there.
type expectation struct {
	file    string
	line    int
	name    string
	re      *regexp.Regexp
	matched bool
}

var (
	wantLineRE  = regexp.MustCompile(`// want (.*)$`)
	wantTokenRE = regexp.MustCompile("^(?:([A-Za-z_][A-Za-z0-9_]*):)?(?:`([^`]*)`|\"([^\"]*)\")[ \t]*")
)

// parseWants extracts every expectation token from a comment. Several
// tokens may follow one `// want`:
//
//	x = 1 // want `first finding` `second finding` Add:`mutating`
func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	m := wantLineRE.FindStringSubmatch(c.Text)
	if m == nil {
		return nil
	}
	pos := fset.Position(c.Pos())
	rest := m[1]
	var wants []*expectation
	for rest != "" {
		tok := wantTokenRE.FindStringSubmatch(rest)
		if tok == nil {
			if len(wants) == 0 {
				t.Fatalf("%s: malformed want comment: %q", pos, c.Text)
			}
			break
		}
		pat := tok[2]
		if pat == "" {
			pat = tok[3]
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
		}
		wants = append(wants, &expectation{
			file: pos.Filename,
			line: pos.Line,
			name: tok[1],
			re:   re,
		})
		rest = rest[len(tok[0]):]
	}
	return wants
}

func check(t *testing.T, fset *token.FileSet, fp *fixturePkg, diags []labeledDiag, facts *analysis.Facts, pkgPath string) {
	t.Helper()
	var wants []*expectation
	for _, f := range fp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, fset, c)...)
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].d.Pos < diags[j].d.Pos })
	for _, ld := range diags {
		pos := fset.Position(ld.d.Pos)
		ok := false
		for _, w := range wants {
			if !w.matched && w.name == "" && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(ld.d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: %s/%s: unexpected diagnostic: %s", pos, ld.analyzer, pkgPath, ld.d.Message)
		}
	}

	// Fact expectations: match against every fact on an object of this
	// package whose declaration sits on the expectation's line.
	for _, of := range facts.AllObjectFacts() {
		obj := of.Object
		if obj.Pkg() == nil || obj.Pkg().Path() != fp.pkg.Path() {
			continue
		}
		pos := fset.Position(obj.Pos())
		for _, w := range wants {
			if !w.matched && w.name == obj.Name() && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(fmt.Sprint(of.Fact)) {
				w.matched = true
			}
		}
	}

	for _, w := range wants {
		if !w.matched {
			kind := "diagnostic"
			label := ""
			if w.name != "" {
				kind = "fact"
				label = w.name + ":"
			}
			t.Errorf("%s:%d: package %s: no %s matching %s%q", w.file, w.line, pkgPath, kind, label, w.re)
		}
	}
}
