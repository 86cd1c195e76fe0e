// Facts: the interprocedural half of the analysis API. A Facts store
// holds every fact exported while a driver runs the suite — one store
// per driver, shared by all analyzers and all packages the driver
// visits, keyed by (object-or-package, concrete fact type).
//
// Two serialization boundaries exist:
//
//   - The unitchecker driver analyzes one compilation unit per process,
//     so facts cross processes: Encode writes the store as a gob stream
//     (the unit's vetx build artifact, cached and hashed by cmd/go) and
//     Decode rebinds a dependency's stream onto the importing unit's
//     *types.Package objects via objectpath-lite (see path.go's sibling
//     functions below). Encoding is deterministic — entries are sorted
//     — because the bytes feed content-addressed caches.
//
//   - The standalone loader and the analysistest harness analyze whole
//     package graphs in one process in topological order, so a single
//     in-memory store suffices: object identity is preserved and no
//     serialization happens.
//
// Facts re-encode transitively: a unit's vetx carries both its own
// facts and every fact it decoded from its dependencies, so importers
// two hops away still see them (cmd/go only hands a unit its direct
// dependencies' vetx files).
package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// FactSchemaVersion identifies the fact wire format. It participates
// in the unitchecker's -V=full content hash, so bumping it (when fact
// types or the gob envelope change incompatibly) invalidates every
// cached vet result that might hold stale fact bytes. v3 adds the
// lockguard GuardFact/LockFact pair.
const FactSchemaVersion = 3

// Facts is a suite-global fact store, safe for concurrent use. Every
// driver in this module fills it from one goroutine in dependency
// order, which is what guarantees a package's facts are complete
// before any importer asks for them; the mutex only protects the map
// structure, and its lockguard annotations let the suite check its
// own shared state.
type Facts struct {
	mu sync.Mutex
	//doors:guardedby mu
	objects map[objectFactKey]Fact
	//doors:guardedby mu
	packages map[packageFactKey]Fact
	// pkgByPath remembers the *types.Package behind each package-fact
	// path when one is known (in-process export, successful decode
	// lookup), so AllPackageFacts can surface it.
	//doors:guardedby mu
	pkgByPath map[string]*types.Package
}

type objectFactKey struct {
	obj types.Object
	t   reflect.Type
}

type packageFactKey struct {
	path string
	t    reflect.Type
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{
		objects:   make(map[objectFactKey]Fact),
		packages:  make(map[packageFactKey]Fact),
		pkgByPath: make(map[string]*types.Package),
	}
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
	pass.ExportPackageFact = func(fact Fact) {
		s.mu.Lock()
		s.packages[packageFactKey{pass.Pkg.Path(), factType(fact)}] = fact
		s.pkgByPath[pass.Pkg.Path()] = pass.Pkg
		s.mu.Unlock()
	}
	pass.ImportPackageFact = func(pkg *types.Package, ptr Fact) bool {
		s.mu.Lock()
		src := s.packages[packageFactKey{pkg.Path(), factType(ptr)}]
		s.mu.Unlock()
		return copyFact(src, ptr)
	}
	pass.AllObjectFacts = s.AllObjectFacts
	pass.AllPackageFacts = s.AllPackageFacts
}

// AllObjectFacts lists every object fact, sorted by package path,
// object path and fact type.
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
		ap, _ := objectPath(a.Object)
		bp, _ := objectPath(b.Object)
		if ap != bp {
			return ap < bp
		}
		return factType(a.Fact).String() < factType(b.Fact).String()
	})
	return out
}

// AllPackageFacts lists every package fact, sorted by package path and
// fact type. Package may be nil for facts decoded from a stream whose
// package the current unit never loaded.
func (s *Facts) AllPackageFacts() []PackageFact {
	type entry struct {
		path string
		f    Fact
	}
	s.mu.Lock()
	entries := make([]entry, 0, len(s.packages))
	for k, f := range s.packages {
		entries = append(entries, entry{k.path, f})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].path != entries[j].path {
			return entries[i].path < entries[j].path
		}
		return factType(entries[i].f).String() < factType(entries[j].f).String()
	})
	out := make([]PackageFact, len(entries))
	for i, e := range entries {
		out[i] = PackageFact{Package: s.pkgByPath[e.path], Fact: e.f}
	}
	s.mu.Unlock()
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

// gobFact is the wire envelope for one fact. Object is the
// objectpath-lite key ("" for package facts); Fact carries the
// concrete type through gob's interface registry (see Validate).
type gobFact struct {
	PkgPath string
	Object  string
	Fact    Fact
}

// Encode serializes the whole store — own facts and inherited ones —
// as a deterministic gob stream.
func (s *Facts) Encode() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var entries []gobFact
	for k, f := range s.objects {
		path, ok := objectPath(k.obj)
		if !ok {
			continue // facts on unaddressable objects stay process-local
		}
		entries = append(entries, gobFact{PkgPath: pkgPathOf(k.obj), Object: path, Fact: f})
	}
	for k, f := range s.packages {
		entries = append(entries, gobFact{PkgPath: k.path, Fact: f})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return factType(a.Fact).String() < factType(b.Fact).String()
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, fmt.Errorf("encoding facts: %v", err)
	}
	return buf.Bytes(), nil
}

// Decode merges a serialized fact stream into the store, resolving
// object paths against the packages returned by lookup (typically the
// importing unit's transitive import map). Entries naming packages or
// objects the lookup cannot resolve are dropped silently: a fact on an
// object the current unit cannot see is a fact it cannot consult.
// Empty data (the pre-facts vetx format) is a valid empty store.
func (s *Facts) Decode(data []byte, lookup func(path string) *types.Package) error {
	if len(data) == 0 {
		return nil
	}
	var entries []gobFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return fmt.Errorf("decoding facts: %v", err)
	}
	// Resolve every entry before taking the lock: lookup may be
	// arbitrarily expensive (it may read export data behind a lock of
	// its own), and calling out while holding s.mu would couple the
	// two lock orders.
	type resolved struct {
		objKey *objectFactKey
		pkgKey *packageFactKey
		pkg    *types.Package
		path   string
		fact   Fact
	}
	var inserts []resolved
	for _, e := range entries {
		if e.Fact == nil {
			continue
		}
		if e.Object == "" {
			inserts = append(inserts, resolved{
				pkgKey: &packageFactKey{e.PkgPath, factType(e.Fact)},
				pkg:    lookup(e.PkgPath),
				path:   e.PkgPath,
				fact:   e.Fact,
			})
			continue
		}
		pkg := lookup(e.PkgPath)
		if pkg == nil {
			continue
		}
		obj, ok := objectAt(pkg, e.Object)
		if !ok {
			continue
		}
		inserts = append(inserts, resolved{objKey: &objectFactKey{obj, factType(e.Fact)}, fact: e.Fact})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range inserts {
		switch {
		case r.objKey != nil:
			s.objects[*r.objKey] = r.fact
		case r.pkgKey != nil:
			s.packages[*r.pkgKey] = r.fact
			if r.pkg != nil {
				s.pkgByPath[r.path] = r.pkg
			}
		}
	}
	return nil
}

// objectPath is objectpath-lite: a stable, export-data-independent key
// for the objects the doorsvet suite attaches facts to. Supported:
//
//	"Name"        a package-level object (type, func, var, const)
//	"Type.Method" a method of a package-level named type
//
// Facts on anything else (struct fields, locals) do not serialize;
// objectPath reports ok=false and Encode skips them.
func objectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			named := namedOf(sig.Recv().Type())
			if named == nil {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	return "", false
}

// objectAt resolves an objectPath key against pkg.
func objectAt(pkg *types.Package, path string) (types.Object, bool) {
	typeName, methodName, isMethod := strings.Cut(path, ".")
	obj := pkg.Scope().Lookup(typeName)
	if obj == nil {
		return nil, false
	}
	if !isMethod {
		return obj, true
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, false
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == methodName {
			return m, true
		}
	}
	return nil, false
}

// namedOf unwraps pointers to reach a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
