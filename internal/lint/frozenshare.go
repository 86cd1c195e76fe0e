package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// FrozenType is the fact frozenshare attaches to a named type that is
// frozen after construction: either explicitly marked
//
//	//doors:frozen
//	type Registry struct { ... }
//
// or reached from a marked type through fields, pointers, slices,
// arrays, maps or channels within the marking package (the shared
// registry freezes everything it owns: Registry freezes AS, Trie and
// trieNode).
type FrozenType struct {
	// Marked records an explicit //doors:frozen marker; false means the
	// type was classified by reachability propagation.
	Marked bool
}

// AFact marks FrozenType as an analyzer fact.
func (*FrozenType) AFact() {}

func (f *FrozenType) String() string {
	if f.Marked {
		return "frozen"
	}
	return "frozen (propagated)"
}

// MutatingMethod is the fact frozenshare attaches to a method of a
// frozen type whose body writes through its receiver (directly, or by
// calling another mutating method on receiver-derived state). Such
// methods are the type's construction API: defining them is legal,
// calling them outside a construction context is a finding — in every
// package, because the fact travels with the type's unit.
type MutatingMethod struct {
	// Direct records a direct field/index write; false means the method
	// mutates by calling another mutating method.
	Direct bool
}

// AFact marks MutatingMethod as an analyzer fact.
func (*MutatingMethod) AFact() {}

func (m *MutatingMethod) String() string { return "mutating" }

// FrozenShare statically proves the frozen-registry contract: shard
// workers share one read-only registry, so every type reachable from
// it must be frozen after construction. The analyzer classifies frozen
// types (marker + propagation), exports FrozenType facts on them and
// MutatingMethod facts on their mutating methods, and flags — in any
// package, via imported facts — field writes, map/slice element
// writes, deletes and mutating method calls on frozen values outside a
// construction context.
//
// A construction context is a top-level function whose name is main or
// init, starts with New/Build/Make/Generate/Freeze (any case), or is a
// method of a locally declared frozen type (those are classified and
// checked at their call sites instead). Mutating a local by-value copy
// of a frozen struct stays legal.
//
// The escape hatch is //lint:allow frozenshare -- <why>.
var FrozenShare = &analysis.Analyzer{
	Name:      "frozenshare",
	Doc:       "prove frozen-after-construction types are never mutated outside construction",
	FactTypes: []analysis.Fact{new(FrozenType), new(MutatingMethod)},
	Run:       runFrozenShare,
}

// frozenMarker is the type-level marker comment.
const frozenMarker = "//doors:frozen"

// ctorPrefixes are the built-in construction-context name prefixes.
var ctorPrefixes = []string{
	"New", "new", "Build", "build", "Make", "make",
	"Generate", "generate", "Freeze", "freeze",
}

func runFrozenShare(pass *analysis.Pass) (interface{}, error) {
	fs := &frozenState{
		pass:   pass,
		frozen: make(map[*types.TypeName]*FrozenType),
	}
	fs.collectMarked()
	fs.propagate()
	for tn, fact := range fs.frozen {
		pass.ExportObjectFact(tn, fact)
	}
	fs.classifyMethods()
	fs.checkViolations()
	return nil, nil
}

type frozenState struct {
	pass   *analysis.Pass
	frozen map[*types.TypeName]*FrozenType // local frozen types
}

// collectMarked finds //doors:frozen markers on type declarations.
func (fs *frozenState) collectMarked() {
	for _, f := range fs.pass.Files {
		if isTestFile(fs.pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declMarked := hasFrozenMarker(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !declMarked && !hasFrozenMarker(ts.Doc) && !hasFrozenMarker(ts.Comment) {
					continue
				}
				if tn, ok := fs.pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					fs.frozen[tn] = &FrozenType{Marked: true}
				}
			}
		}
	}
}

func hasFrozenMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == frozenMarker || strings.HasPrefix(c.Text, frozenMarker+" ") {
			return true
		}
	}
	return false
}

// propagate extends the frozen set to every named struct type in this
// package reachable from an already-frozen type through fields and
// container element types. Imported named types are left alone: a
// cross-package field either already carries a FrozenType fact from
// its own package's pass (and is then honored by isFrozen) or lies
// outside the contract.
func (fs *frozenState) propagate() {
	var worklist []*types.TypeName
	for tn := range fs.frozen {
		worklist = append(worklist, tn)
	}
	seen := make(map[types.Type]bool)
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch tt := t.(type) {
		case *types.Pointer:
			visit(tt.Elem())
		case *types.Slice:
			visit(tt.Elem())
		case *types.Array:
			visit(tt.Elem())
		case *types.Chan:
			visit(tt.Elem())
		case *types.Map:
			visit(tt.Key())
			visit(tt.Elem())
		case *types.Struct:
			for i := 0; i < tt.NumFields(); i++ {
				visit(tt.Field(i).Type())
			}
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() != fs.pass.Pkg {
				return
			}
			if _, isStruct := tt.Underlying().(*types.Struct); !isStruct {
				return
			}
			if _, ok := fs.frozen[obj]; !ok {
				fs.frozen[obj] = &FrozenType{Marked: false}
				worklist = append(worklist, obj)
			}
		}
	}
	for len(worklist) > 0 {
		tn := worklist[0]
		worklist = worklist[1:]
		visit(tn.Type().Underlying())
	}
}

// isFrozen reports whether named t (directly or behind one pointer) is
// frozen: a local classification or an imported FrozenType fact.
func (fs *frozenState) isFrozen(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == fs.pass.Pkg {
		_, ok := fs.frozen[obj]
		return ok
	}
	return fs.pass.ImportObjectFact(obj, new(FrozenType))
}

// namedOf unwraps one pointer level to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// classifyMethods finds the mutating methods of locally declared
// frozen types and exports MutatingMethod facts for them. A method
// mutates when it writes through receiver-derived state — tracked by a
// light taint analysis over local aliases (`root := &t.v6; node :=
// root; node.set = true` mutates the receiver) — or calls another
// method already classified as mutating on receiver-derived state, to
// a fixpoint (Registry.Add → Trie.Insert).
func (fs *frozenState) classifyMethods() {
	methods := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range fs.pass.Files {
		if isTestFile(fs.pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			fn, ok := fs.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if named := namedOf(recv.Type()); named != nil {
				if _, frozen := fs.frozen[named.Obj()]; frozen {
					methods[fn] = fd
				}
			}
		}
	}

	mutating := make(map[*types.Func]*MutatingMethod)
	for changed := true; changed; {
		changed = false
		for fn, fd := range methods {
			if mutating[fn] != nil {
				continue
			}
			if m := fs.methodMutates(fd, mutating); m != nil {
				mutating[fn] = m
				changed = true
			}
		}
	}
	for fn, m := range mutating {
		fs.pass.ExportObjectFact(fn, m)
	}
}

// methodMutates classifies one frozen-type method body, given the
// methods known mutating so far.
func (fs *frozenState) methodMutates(fd *ast.FuncDecl, known map[*types.Func]*MutatingMethod) *MutatingMethod {
	tainted := fs.receiverTaint(fd)
	if tainted == nil {
		return nil // unnamed receiver: cannot mutate through it
	}

	var verdict *MutatingMethod
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if verdict != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if fs.chainWrite(lhs) && tainted[fs.chainRootObj(lhs)] {
					verdict = &MutatingMethod{Direct: true}
				}
			}
		case *ast.IncDecStmt:
			if fs.chainWrite(n.X) && tainted[fs.chainRootObj(n.X)] {
				verdict = &MutatingMethod{Direct: true}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := fs.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(n.Args) == 2 {
					if tainted[fs.chainRootObj(n.Args[0])] {
						verdict = &MutatingMethod{Direct: true}
					}
				}
				return true
			}
			if callee := fs.calledMethod(n); callee != nil {
				sel := n.Fun.(*ast.SelectorExpr)
				if !tainted[fs.chainRootObj(sel.X)] {
					return true
				}
				if known[callee] != nil {
					verdict = &MutatingMethod{Direct: false}
				} else if fs.pass.ImportObjectFact(callee, new(MutatingMethod)) {
					verdict = &MutatingMethod{Direct: false} // imported frozen field's mutator
				}
			}
		}
		return true
	})
	return verdict
}

// receiverTaint seeds the receiver object and propagates taint to
// locals bound (directly or through &, *, selectors and indexing) to
// receiver-derived expressions, to a fixpoint.
func (fs *frozenState) receiverTaint(fd *ast.FuncDecl) map[types.Object]bool {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recvObj := fs.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil {
		return nil
	}
	tainted := map[types.Object]bool{recvObj: true}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := fs.pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = fs.pass.TypesInfo.Uses[id]
					}
					if obj == nil || tainted[obj] {
						continue
					}
					if tainted[fs.chainRootObj(n.Rhs[i])] {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}

// chainWrite reports whether expr writes *through* something — a
// selector, index or dereference — rather than rebinding a plain
// identifier.
func (fs *frozenState) chainWrite(expr ast.Expr) bool {
	switch expr.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return fs.chainWrite(expr.(*ast.ParenExpr).X)
	}
	return false
}

// chainRootObj unwraps selector/index/star/paren/&-chains to the root
// identifier's object, or nil.
func (fs *frozenState) chainRootObj(expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return nil
			}
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.Ident:
			if o := fs.pass.TypesInfo.Uses[e]; o != nil {
				return o
			}
			return fs.pass.TypesInfo.Defs[e]
		default:
			return nil
		}
	}
}

// calledMethod resolves call to the *types.Func of a method call, or
// nil for plain function and conversion calls.
func (fs *frozenState) calledMethod(call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if _, isMethod := fs.pass.TypesInfo.Selections[sel]; !isMethod {
		return nil
	}
	fn, _ := fs.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn
}

// ctorContext reports whether fd is a construction context where
// frozen-state mutation is legal.
func (fs *frozenState) ctorContext(fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		// A method of a local frozen type: classified by
		// classifyMethods, checked at its call sites.
		if fn, ok := fs.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			if named := namedOf(fn.Type().(*types.Signature).Recv().Type()); named != nil {
				if _, frozen := fs.frozen[named.Obj()]; frozen {
					return true
				}
			}
		}
		return false
	}
	name := fd.Name.Name
	if name == "main" || name == "init" {
		return true
	}
	for _, p := range ctorPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// checkViolations scans every non-construction function for writes
// through frozen state and calls to mutating methods.
func (fs *frozenState) checkViolations() {
	for _, f := range fs.pass.Files {
		if isTestFile(fs.pass, f) {
			continue
		}
		allow := allowsFor(fs.pass, f, "frozenshare")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fs.ctorContext(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						fs.checkWrite(lhs, allow)
					}
				case *ast.IncDecStmt:
					fs.checkWrite(n.X, allow)
				case *ast.CallExpr:
					fs.checkCall(n, allow)
				}
				return true
			})
		}
	}
}

// checkWrite flags a write whose access chain passes through frozen
// state. Walking the chain outside-in: the write is frozen-hostile if
// any base expression along it has pointer-to-frozen type, or frozen
// value type with reference semantics, or is a non-local frozen
// value — mutating a function-local by-value copy of a frozen struct
// is legal (the copy is goroutine-local; its reference-typed fields
// are caught one level down).
func (fs *frozenState) checkWrite(lhs ast.Expr, allow allowed) {
	if !fs.chainWrite(lhs) {
		return
	}
	expr := lhs
	for {
		var base ast.Expr
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.StarExpr:
			base = e.X
		case *ast.SelectorExpr:
			base = e.X
		case *ast.IndexExpr:
			base = e.X
		default:
			return
		}
		if named := fs.frozenBase(base); named != nil {
			if allow.at(fs.pass, lhs.Pos()) {
				return
			}
			fs.pass.Reportf(lhs.Pos(),
				"write through frozen type %s outside a construction context; %s is frozen after construction (//doors:frozen; annotate //lint:allow frozenshare -- <why> if sanctioned)",
				named.Obj().Name(), named.Obj().Name())
			return
		}
		expr = base
	}
}

// frozenBase reports the frozen named type a chain base exposes for
// mutation, or nil. Local by-value frozen structs are exempt.
func (fs *frozenState) frozenBase(base ast.Expr) *types.Named {
	tv, ok := fs.pass.TypesInfo.Types[base]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		if named, _ := ptr.Elem().(*types.Named); named != nil && fs.isFrozen(named) {
			return named
		}
		return nil
	}
	named, _ := t.(*types.Named)
	if named == nil || !fs.isFrozen(named) {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); isStruct {
		// A by-value struct: exempt if it is a plain local variable (a
		// copy). Package-level values and anything reached through a
		// selector/index chain remain shared.
		if id, isIdent := base.(*ast.Ident); isIdent {
			obj := fs.pass.TypesInfo.Uses[id]
			if v, isVar := obj.(*types.Var); isVar && v.Parent() != fs.pass.Pkg.Scope() {
				return nil
			}
		}
	}
	return named
}

// checkCall flags calls to methods carrying a MutatingMethod fact —
// the cross-package half of the contract: p2 calling p1's Registry.Add
// after construction is a finding even though Add's body lives in a
// different compilation unit.
func (fs *frozenState) checkCall(call *ast.CallExpr, allow allowed) {
	// delete(frozen.M, k) is a write too.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := fs.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(call.Args) == 2 {
			fs.checkWrite(call.Args[0], allow)
		}
		return
	}
	callee := fs.calledMethod(call)
	if callee == nil {
		return
	}
	var m MutatingMethod
	if !fs.pass.ImportObjectFact(callee, &m) {
		return
	}
	if allow.at(fs.pass, call.Pos()) {
		return
	}
	recv := "?"
	if named := namedOf(callee.Type().(*types.Signature).Recv().Type()); named != nil {
		recv = named.Obj().Name()
	}
	fs.pass.Reportf(call.Pos(),
		"call to mutating method %s.%s of frozen type outside a construction context (//doors:frozen; annotate //lint:allow frozenshare -- <why> if sanctioned)",
		recv, callee.Name())
}
