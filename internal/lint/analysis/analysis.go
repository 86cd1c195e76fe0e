// Package analysis is a minimal, dependency-free subset of
// golang.org/x/tools/go/analysis: just enough surface for the doorsvet
// suite to define modular per-package checks and for the driver in
// internal/lint/loader (and the analysistest harness) to run them.
//
// The container this repo builds in has no module proxy access, so the
// real x/tools module cannot be fetched; the types here mirror its API
// shape (Analyzer, Pass, Diagnostic) so that a future PR can swap the
// import paths for golang.org/x/tools/go/analysis without touching the
// analyzers themselves.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// An Analyzer describes one analysis function and the facts it uses.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// Go identifier.
	Name string

	// Doc is the analyzer's documentation; the first line is used as a
	// summary.
	Doc string

	// Run applies the analyzer to a package.
	Run func(*Pass) (interface{}, error)

	// FactTypes lists the concrete types of facts this analyzer exports
	// or imports, as pointers to zero values (e.g. new(FrozenType)).
	//
	// Unlike x/tools, facts here live in one suite-global store keyed
	// by concrete fact type rather than in per-analyzer namespaces, so
	// a later analyzer in the suite may consume facts exported by an
	// earlier one (shardcapture reads frozenshare's FrozenType facts).
	// Drivers run analyzers in slice order, which makes that ordering
	// deterministic.
	FactTypes []Fact
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides information to an Analyzer's Run function about the
// single package under analysis, and exposes the Report function for
// emitting diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the path of the module containing this package, and
	// Dir the package directory ("" when unknown).
	Module string
	Dir    string

	// Report emits a diagnostic about a problem in the package.
	Report func(Diagnostic)

	// The fact machinery, bound by the driver (Facts.Bind). Facts are
	// typed values attached to package-level objects or whole packages
	// during one pass and visible to every later pass, including passes
	// over importing packages.

	// ExportObjectFact attaches fact to obj, which must belong to the
	// package under analysis.
	ExportObjectFact func(obj types.Object, fact Fact)
	// ImportObjectFact copies the fact of ptr's concrete type attached
	// to obj (by this pass or any earlier one, in any package) into
	// *ptr, reporting whether one was found.
	ImportObjectFact func(obj types.Object, ptr Fact) bool
	// ExportPackageFact attaches fact to the package under analysis.
	ExportPackageFact func(fact Fact)
	// ImportPackageFact copies pkg's fact of ptr's concrete type into
	// *ptr, reporting whether one was found.
	ImportPackageFact func(pkg *types.Package, ptr Fact) bool
}

// A Fact is a typed datum attached to an object or package by one
// analyzer pass and consumed by later passes. Concrete fact types must
// be pointers to structs and are declared via Analyzer.FactTypes.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// ObjectFact pairs an object with one of its facts.
type ObjectFact struct {
	Object types.Object
	Fact   Fact
}

// Reportf formats a diagnostic message and reports it at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (p *Pass) String() string {
	return fmt.Sprintf("%s@%s", p.Analyzer.Name, p.Pkg.Path())
}

// A Diagnostic is a message associated with a source location.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Validate reports an error if any analyzer is misconfigured (nil Run,
// empty or duplicate names, malformed fact types).
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a == nil {
			return fmt.Errorf("nil *Analyzer")
		}
		if a.Name == "" {
			return fmt.Errorf("analyzer has no name")
		}
		if a.Run == nil {
			return fmt.Errorf("analyzer %q has nil Run", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		for _, f := range a.FactTypes {
			if f == nil {
				return fmt.Errorf("analyzer %q has nil fact type", a.Name)
			}
			if t := reflect.TypeOf(f); t.Kind() != reflect.Ptr {
				return fmt.Errorf("analyzer %q fact type %T is not a pointer", a.Name, f)
			}
		}
	}
	return nil
}
