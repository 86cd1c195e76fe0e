// Facts: the interprocedural half of the analysis API. A Facts store
// holds every fact exported while a driver runs the suite — one store
// per run, shared by all analyzers and all packages the driver visits,
// keyed by (object, concrete fact type).
//
// The loader and the analysistest harness analyze a whole package
// graph in one process, in dependency order, so one in-memory store
// suffices: object identity is preserved and nothing is serialized.
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// Facts is a suite-global fact store, safe for concurrent use. Every
// driver in this module fills it from one goroutine in dependency
// order, which is what guarantees a package's facts are complete
// before any importer asks for them; the mutex only protects the map
// structure.
type Facts struct {
	mu      sync.Mutex
	objects map[objectFactKey]Fact
}

type objectFactKey struct {
	obj types.Object
	t   reflect.Type
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{objects: make(map[objectFactKey]Fact)}
}

// Bind wires the store into pass's fact function fields. Export
// functions verify the target belongs to the package under analysis —
// exporting a fact for another package's object is a driver-order bug,
// not a recoverable condition, so they panic.
func (s *Facts) Bind(pass *Pass) {
	pass.ExportObjectFact = func(obj types.Object, fact Fact) {
		if obj == nil || obj.Pkg() != pass.Pkg {
			panic(fmt.Sprintf("%s: ExportObjectFact(%v): object not defined in package under analysis", pass, obj))
		}
		s.mu.Lock()
		s.objects[objectFactKey{obj, factType(fact)}] = fact
		s.mu.Unlock()
	}
	pass.ImportObjectFact = func(obj types.Object, ptr Fact) bool {
		s.mu.Lock()
		src := s.objects[objectFactKey{obj, factType(ptr)}]
		s.mu.Unlock()
		return copyFact(src, ptr)
	}
}

// AllObjectFacts lists every object fact, sorted by package path,
// object position and fact type.
func (s *Facts) AllObjectFacts() []ObjectFact {
	s.mu.Lock()
	out := make([]ObjectFact, 0, len(s.objects))
	for k, f := range s.objects {
		out = append(out, ObjectFact{Object: k.obj, Fact: f})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if pa, pb := pkgPathOf(a.Object), pkgPathOf(b.Object); pa != pb {
			return pa < pb
		}
		if a.Object.Pos() != b.Object.Pos() {
			return a.Object.Pos() < b.Object.Pos()
		}
		return factType(a.Fact).String() < factType(b.Fact).String()
	})
	return out
}

func factType(f Fact) reflect.Type {
	t := reflect.TypeOf(f)
	if t == nil || t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("invalid fact type %T: facts must be pointers to structs", f))
	}
	return t
}

// copyFact copies src (if non-nil) into the pointer ptr and reports
// whether a fact was present.
func copyFact(src Fact, ptr Fact) bool {
	if src == nil {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(src).Elem())
	return true
}

func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}
