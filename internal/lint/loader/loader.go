// Package loader is the doorsvet driver: it loads package patterns by
// shelling out to "go list -export -deps -json" (offline-safe; the
// repo has no external module dependencies), type-checks every
// in-module package from source, and applies every analyzer to each of
// them over one shared in-memory fact store. Standard-library
// dependencies are imported from the compiler's export data and never
// analyzed.
//
// Packages are visited in one sequential walk of the go list order,
// which is a dependency post-order: every package is analyzed after
// all of its dependencies, so facts flow strictly from importee to
// importer and every pass sees a complete dependency store.
//
// Re-running the analyzers over dependencies — not just the named
// target packages — is what makes interprocedural facts work: when p2
// imports p1's frozen registry type, p1's pass exports the
// FrozenType/MutatingMethod facts that p2's pass then consults, with
// object identity preserved because both passes share one
// type-checker world. Diagnostics are only reported for the packages
// the patterns named.
//
// It backs `make lint` ("doorsvet ./..."), the -pragmas audit, and
// tests.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ Path string }
}

// Diagnostic pairs an analyzer finding with its resolved position.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

// Run loads patterns (e.g. "./...") in dir, applies analyzers to every
// in-module package in dependency order (facts flow from importee to
// importer), and returns the diagnostics of the non-dependency target
// packages sorted by position. The first error in dependency order
// ends the run: a dependency's real failure is reported, never a
// dependent's cascading one.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	// go list -deps emits a depth-first post-order: every package
	// appears after all of its dependencies.
	exports := make(map[string]string) // package path -> export data file
	var ordered []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		ordered = append(ordered, p)
	}

	// Imports resolve to packages already checked from source this
	// run, and otherwise (the standard library) to gc export data.
	fset := token.NewFileSet()
	checked := make(map[string]*types.Package)
	gcImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return gcImporter.Import(path)
	})

	facts := analysis.NewFacts()
	var diags []Diagnostic
	for _, p := range ordered {
		if p.Standard {
			continue // stdlib: export data only, never analyzed
		}
		if len(p.CgoFiles) > 0 {
			if p.DepOnly {
				continue
			}
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		pkgDiags, err := analyze(p, fset, imp, checked, facts, analyzers)
		if err != nil {
			return nil, err
		}
		if !p.DepOnly {
			diags = append(diags, pkgDiags...)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// analyze parses and type-checks one in-module package, records it in
// checked for its importers, and runs every analyzer over it with the
// shared fact store bound.
func analyze(p *listPackage, fset *token.FileSet, imp types.Importer, checked map[string]*types.Package, facts *analysis.Facts, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
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
	tc := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	pkg, err := tc.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
	}
	checked[p.ImportPath] = pkg
	module := ""
	if p.Module != nil {
		module = p.Module.Path
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Module:    module,
			Dir:       p.Dir,
			Report: func(d analysis.Diagnostic) {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Position: fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
		}
		facts.Bind(pass)
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", p.ImportPath, a.Name, err)
		}
	}
	return diags, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
