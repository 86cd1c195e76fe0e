package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// lockguard enforces annotated mutex discipline — the contract that
// keeps mutex-guarded shared state, such as the lint suite's own fact
// store and pragma recorder, free of data races.
//
// Two markers carry the contract:
//
//	//doors:guardedby <mutexfield>     on a struct field: every read
//	                                   or write of the field must
//	                                   happen while the sibling mutex
//	                                   field is held.
//	//doors:requires-lock <recv>.<mu>  on a method: callers must hold
//	                                   recv's mutex before calling; the
//	                                   method body is checked as if the
//	                                   lock were held on entry.
//
// Enforcement is intra-procedural critical-section tracking: the body
// of every function is walked with a held-lock set updated by
// mu.Lock()/Unlock()/RLock()/RUnlock() calls. `defer mu.Unlock()`
// keeps the lock held to every exit. Branches are explored with a
// cloned held set (a lock acquired inside an if does not count as held
// after it), and function literals start from an empty set — a closure
// cannot inherit its creator's critical section, because nothing says
// it runs inside it. Lock identity is (chain root object, field path),
// so c.mu and d.mu are different locks while two spellings of the same
// promoted field are the same lock.
//
// Findings:
//
//   - a guarded field read without any hold, or written under RLock;
//   - acquiring a lock already held (self-deadlock), directly or by
//     calling a function whose LockFact says it acquires it;
//   - calling a //doors:requires-lock method without holding the named
//     mutex;
//   - lock-order inversion: function f acquires A then B while some
//     function anywhere in the build (via LockFact pairs) acquires B
//     then A.
//
// Interprocedural state flows as facts: GuardFact (on the named struct
// type: guarded field -> mutex field) makes annotations visible to
// importing packages; LockFact (per function: transitively acquired
// lock ids, required receiver mutexes, observed acquisition-order
// pairs) powers the call checks and the inversion detector across
// package boundaries through both drivers.
//
// Known imprecision, on the safe-for-signal side: accesses rooted at a
// variable declared inside the function body are not checked (the
// value is still private to its constructor in every pattern this repo
// uses), conditional acquisition (TryLock, `if c { mu.Lock() }`) is
// ignored, and aliasing through pointers is invisible. The racestress
// differential test backs the static verdict with the race detector.
var LockGuard = &analysis.Analyzer{
	Name:      "lockguard",
	Doc:       "enforce //doors:guardedby and //doors:requires-lock mutex contracts",
	Run:       runLockGuard,
	FactTypes: []analysis.Fact{(*GuardFact)(nil), (*LockFact)(nil)},
}

// GuardFact, attached to a named struct type, records its annotated
// fields: guarded field name -> sibling mutex field name.
type GuardFact struct {
	Guards map[string]string
}

func (*GuardFact) AFact() {}

func (f *GuardFact) String() string {
	parts := make([]string, 0, len(f.Guards))
	for field, mu := range f.Guards {
		parts = append(parts, field+":"+mu)
	}
	sort.Strings(parts)
	return "guarded(" + strings.Join(parts, ",") + ")"
}

// LockFact, attached to a function, is its lock effect: Acquires lists
// the type-level lock ids ("pkg.Type.mu" or "pkg.var") it may take,
// transitively through same-package calls and imported facts; Requires
// lists receiver mutex field names callers must hold; Pairs records
// every (held, acquired) order observed in the body, the raw material
// of the cross-package inversion check.
type LockFact struct {
	Acquires []string
	Requires []string
	Pairs    [][2]string
}

func (*LockFact) AFact() {}

func (f *LockFact) String() string {
	var parts []string
	if len(f.Acquires) > 0 {
		parts = append(parts, "acquires="+strings.Join(f.Acquires, ","))
	}
	if len(f.Requires) > 0 {
		parts = append(parts, "requires="+strings.Join(f.Requires, ","))
	}
	if len(f.Pairs) > 0 {
		ps := make([]string, len(f.Pairs))
		for i, p := range f.Pairs {
			ps[i] = p[0] + "<" + p[1]
		}
		parts = append(parts, "pairs="+strings.Join(ps, ","))
	}
	return "locks(" + strings.Join(parts, ";") + ")"
}

const (
	guardedByMarker    = "//doors:guardedby"
	requiresLockMarker = "//doors:requires-lock"
)

// Lock operations, as (acquire?, write-mode?) pairs.
type lockOp int

const (
	opLock lockOp = iota
	opRLock
	opUnlock
	opRUnlock
)

type lockMode int

const (
	modeRead lockMode = iota
	modeWrite
)

// lockInst identifies one mutex value within a function: the root
// object of its selector chain plus the canonical field path (promoted
// fields spelled out), so x.mu and (&x).mu coincide and x.mu, y.mu
// differ.
type lockInst struct {
	root types.Object
	path string
}

// heldLock is a held entry: the strongest mode held and the type-level
// id used for facts and pair recording ("" for locals).
type heldLock struct {
	mode   lockMode
	typeID string
}

type lgGuard struct {
	mutex string // sibling mutex field name
}

type lgPair struct {
	a, b string
	pos  token.Pos
}

type lgState struct {
	pass    *analysis.Pass
	allowed map[string]allowed // filename -> lockguard pragmas

	guards   map[*types.Var]lgGuard    // same-package annotated fields
	requires map[*types.Func][]string  // method -> receiver mutex fields
	acquires map[*types.Func]stringSet // transitive type-level acquires
	edges    map[*types.Func][]*types.Func

	pairs    []lgPair // acquisition orders observed, in walk order
	pairSeen map[[2]string]bool
}

type stringSet map[string]bool

func runLockGuard(pass *analysis.Pass) (interface{}, error) {
	s := &lgState{
		pass:     pass,
		allowed:  make(map[string]allowed),
		guards:   make(map[*types.Var]lgGuard),
		requires: make(map[*types.Func][]string),
		acquires: make(map[*types.Func]stringSet),
		edges:    make(map[*types.Func][]*types.Func),
		pairSeen: make(map[[2]string]bool),
	}
	var files []*ast.File
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		files = append(files, f)
		s.allowed[pass.Fset.Position(f.Pos()).Filename] = allowsFor(pass, f, "lockguard")
	}

	for _, f := range files {
		s.collectGuards(f)
	}
	var decls []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
				s.collectSignature(fd)
			}
		}
	}
	s.propagateAcquires()
	for _, fd := range decls {
		s.walkFunc(fd)
	}
	s.exportFacts(decls)
	s.checkInversions()
	return nil, nil
}

func (s *lgState) report(pos token.Pos, format string, args ...interface{}) {
	file := s.pass.Fset.Position(pos).Filename
	if a, ok := s.allowed[file]; ok && a.at(s.pass, pos) {
		return
	}
	s.pass.Reportf(pos, format, args...)
}

// collectGuards parses //doors:guardedby annotations off struct fields
// and exports one GuardFact per annotated named type.
func (s *lgState) collectGuards(f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			tn, _ := s.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if tn == nil {
				continue
			}
			guards := make(map[string]string)
			for _, field := range st.Fields.List {
				mu, pos, ok := markerArg(guardedByMarker, field.Doc, field.Comment)
				if !ok {
					continue
				}
				if len(field.Names) == 0 {
					s.report(pos, "//doors:guardedby on an embedded field is not supported; name the field")
					continue
				}
				if !s.validMutexSibling(st, mu) {
					s.report(pos, "//doors:guardedby %s: %s is not a sync.Mutex or sync.RWMutex field of %s", mu, mu, ts.Name.Name)
					continue
				}
				for _, name := range field.Names {
					fv, _ := s.pass.TypesInfo.Defs[name].(*types.Var)
					if fv == nil {
						continue
					}
					s.guards[fv] = lgGuard{mutex: mu}
					guards[name.Name] = mu
				}
			}
			if len(guards) > 0 {
				s.pass.ExportObjectFact(tn, &GuardFact{Guards: guards})
			}
		}
	}
}

// validMutexSibling reports whether the struct declares a field named
// mu of mutex type.
func (s *lgState) validMutexSibling(st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		t := s.pass.TypesInfo.TypeOf(field.Type)
		if !isMutexType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == mu {
				return true
			}
		}
		// Embedded mutex: the promoted field name is the type name.
		if len(field.Names) == 0 {
			if named := namedOf(t); named != nil && named.Obj().Name() == mu {
				return true
			}
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if !pathHasSuffix(named.Obj().Pkg().Path(), "sync") {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// collectSignature parses //doors:requires-lock markers and scans the
// body (closures excluded — their lock activity belongs to whoever
// runs them) for direct acquisitions and same-package call edges, the
// inputs of the transitive-acquires fixpoint.
func (s *lgState) collectSignature(fd *ast.FuncDecl) {
	fn, _ := s.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, requiresLockMarker) {
				continue
			}
			arg := strings.TrimSpace(strings.TrimPrefix(text, requiresLockMarker))
			recvName, mu, ok := strings.Cut(arg, ".")
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
				s.report(c.Pos(), "//doors:requires-lock wants <recv>.<mutexfield> on a method with a named receiver")
				continue
			}
			if fd.Recv.List[0].Names[0].Name != recvName {
				s.report(c.Pos(), "//doors:requires-lock %s: receiver is named %s", arg, fd.Recv.List[0].Names[0].Name)
				continue
			}
			if _, ok := s.recvMutexField(fn, mu); !ok {
				s.report(c.Pos(), "//doors:requires-lock %s: %s has no mutex field %s", arg, recvTypeName(fn), mu)
				continue
			}
			s.requires[fn] = append(s.requires[fn], mu)
		}
	}

	acq := make(stringSet)
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if tgt, op, ok := s.lockCall(x); ok {
				if (op == opLock || op == opRLock) && tgt.typeID != "" {
					acq[tgt.typeID] = true
				}
				return true
			}
			if callee := staticCallee(s.pass.TypesInfo, x); callee != nil {
				if callee.Pkg() == s.pass.Pkg {
					s.edges[fn] = append(s.edges[fn], callee)
				} else {
					var lf LockFact
					if s.pass.ImportObjectFact(callee, &lf) {
						for _, id := range lf.Acquires {
							acq[id] = true
						}
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, scan)
	s.acquires[fn] = acq
}

// recvMutexField finds the named mutex field on fn's receiver type.
func (s *lgState) recvMutexField(fn *types.Func, mu string) (*types.Var, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	return mutexFieldOf(sig.Recv().Type(), mu)
}

func mutexFieldOf(t types.Type, mu string) (*types.Var, bool) {
	named := namedOf(t)
	if named == nil {
		return nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == mu && isMutexType(f.Type()) {
			return f, true
		}
	}
	return nil, false
}

// propagateAcquires closes the acquires sets over same-package call
// edges to a fixpoint, so a caller inherits everything its callees may
// lock (cross-package callees were folded in during the scan).
func (s *lgState) propagateAcquires() {
	for changed := true; changed; {
		changed = false
		for fn, callees := range s.edges {
			acq := s.acquires[fn]
			for _, callee := range callees {
				for id := range s.acquires[callee] {
					if !acq[id] {
						acq[id] = true
						changed = true
					}
				}
			}
		}
	}
}

// lockTarget is a resolved mutex value: its per-function instance and
// type-level id.
type lockTarget struct {
	inst   lockInst
	typeID string
}

// lockCall resolves call as a mutex operation. Promoted spellings
// (x.Lock() through an embedded Mutex) resolve to the same instance as
// the explicit x.Mutex.Lock().
func (s *lgState) lockCall(call *ast.CallExpr) (lockTarget, lockOp, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockTarget{}, 0, false
	}
	selection, ok := s.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return lockTarget{}, 0, false
	}
	m, ok := selection.Obj().(*types.Func)
	if !ok || m.Pkg() == nil || !pathHasSuffix(m.Pkg().Path(), "sync") {
		return lockTarget{}, 0, false
	}
	recv := recvTypeName(m)
	if recv != "Mutex" && recv != "RWMutex" {
		return lockTarget{}, 0, false
	}
	var op lockOp
	switch m.Name() {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return lockTarget{}, 0, false // TryLock and friends: conditional, ignored
	}
	// The mutex value is sel.X plus any promoted field hops the method
	// selection traversed (all Index entries but the final method one).
	tgt, ok := s.resolveMutex(sel.X, selection.Index()[:len(selection.Index())-1])
	if !ok {
		return lockTarget{}, 0, false
	}
	return tgt, op, true
}

// resolveMutex resolves expr (+ trailing promoted field hops) to a
// lock target. ok=false means the chain is not trackable (an element
// of a slice, a function result) and the operation is ignored.
func (s *lgState) resolveMutex(expr ast.Expr, promoted []int) (lockTarget, bool) {
	root, hops, ok := s.chain(expr)
	if !ok {
		return lockTarget{}, false
	}
	t := s.pass.TypesInfo.TypeOf(expr)
	for _, idx := range promoted {
		f, next, ok := fieldAt(t, idx)
		if !ok {
			return lockTarget{}, false
		}
		hops = append(hops, f)
		t = next
	}
	parts := make([]string, len(hops))
	for i, h := range hops {
		parts[i] = h.Name()
	}
	inst := lockInst{root: root, path: strings.Join(parts, ".")}
	var terminal *types.Var
	if len(hops) > 0 {
		terminal = hops[len(hops)-1]
	} else if v, ok := root.(*types.Var); ok {
		terminal = v
	}
	return lockTarget{inst: inst, typeID: s.typeIDOf(root, hops, terminal)}, true
}

// typeIDOf names the declaration site of the terminal variable: a
// struct field is "pkg.OwnerType.field", a package-level var is
// "pkg.var", anything else (a local mutex) has no type-level identity.
func (s *lgState) typeIDOf(root types.Object, hops []*types.Var, terminal *types.Var) string {
	if terminal == nil || terminal.Pkg() == nil {
		return ""
	}
	if len(hops) == 0 {
		if v, ok := root.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return ""
	}
	// Walk the chain re-discovering the nearest named type enclosing
	// each hop; the last one declared the terminal field.
	t := root.Type()
	var owner *types.Named
	for _, h := range hops {
		if named := namedOf(t); named != nil {
			owner = named
		}
		t = h.Type()
	}
	if owner == nil {
		return ""
	}
	return terminal.Pkg().Path() + "." + owner.Obj().Name() + "." + terminal.Name()
}

// chain decomposes expr into a root object and the field hops from it,
// with promoted fields spelled out so every spelling of one value has
// one canonical path.
func (s *lgState) chain(expr ast.Expr) (types.Object, []*types.Var, bool) {
	switch x := unparen(expr).(type) {
	case *ast.Ident:
		obj := s.pass.TypesInfo.ObjectOf(x)
		if obj == nil {
			return nil, nil, false
		}
		return obj, nil, true
	case *ast.StarExpr:
		return s.chain(x.X)
	case *ast.SelectorExpr:
		if pn := pkgNameOf(s.pass, x.X); pn != nil {
			obj := s.pass.TypesInfo.ObjectOf(x.Sel)
			if obj == nil {
				return nil, nil, false
			}
			return obj, nil, true
		}
		selection, ok := s.pass.TypesInfo.Selections[x]
		if !ok || selection.Kind() != types.FieldVal {
			return nil, nil, false
		}
		root, hops, ok := s.chain(x.X)
		if !ok {
			return nil, nil, false
		}
		t := s.pass.TypesInfo.TypeOf(x.X)
		for _, idx := range selection.Index() {
			f, next, ok := fieldAt(t, idx)
			if !ok {
				return nil, nil, false
			}
			hops = append(hops, f)
			t = next
		}
		return root, hops, true
	}
	return nil, nil, false
}

// fieldAt returns struct field idx of t (through pointers/naming) and
// the field's type.
func fieldAt(t types.Type, idx int) (*types.Var, types.Type, bool) {
	if t == nil {
		return nil, nil, false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok || idx >= st.NumFields() {
		return nil, nil, false
	}
	f := st.Field(idx)
	return f, f.Type(), true
}

// guardOf resolves a field-selection expression to its guard contract:
// the mutex instance that must be held and a label for diagnostics.
// Annotations travel as GuardFacts, so fields of imported types are
// covered too.
func (s *lgState) guardOf(sel *ast.SelectorExpr) (inst lockInst, typeID, fieldName, muName string, ok bool) {
	selection, found := s.pass.TypesInfo.Selections[sel]
	if !found || selection.Kind() != types.FieldVal {
		return
	}
	fv, _ := selection.Obj().(*types.Var)
	if fv == nil {
		return
	}
	var mu string
	if g, local := s.guards[fv]; local {
		mu = g.mutex
	} else {
		owner := s.fieldOwner(sel, selection)
		if owner == nil {
			return
		}
		var gf GuardFact
		if !s.pass.ImportObjectFact(owner.Obj(), &gf) {
			return
		}
		mu, found = gf.Guards[fv.Name()]
		if !found {
			return
		}
	}
	root, hops, chainOK := s.chain(sel)
	if !chainOK || len(hops) == 0 {
		return
	}
	parts := make([]string, 0, len(hops))
	for _, h := range hops[:len(hops)-1] {
		parts = append(parts, h.Name())
	}
	muParts := append(append([]string(nil), parts...), mu)
	inst = lockInst{root: root, path: strings.Join(muParts, ".")}
	muVar, _ := mutexFieldOf(s.ownerTypeOf(root, hops), mu)
	typeID = ""
	if muVar != nil && muVar.Pkg() != nil {
		if owner := s.ownerTypeOf(root, hops); owner != nil {
			typeID = muVar.Pkg().Path() + "." + owner.Obj().Name() + "." + mu
		}
	}
	return inst, typeID, fv.Name(), mu, true
}

// ownerTypeOf walks root's type through all but the last hop,
// returning the named type declaring the terminal field.
func (s *lgState) ownerTypeOf(root types.Object, hops []*types.Var) *types.Named {
	t := root.Type()
	var owner *types.Named
	for _, h := range hops {
		if named := namedOf(t); named != nil {
			owner = named
		}
		t = h.Type()
	}
	return owner
}

// fieldOwner resolves the named type declaring the selected field, for
// the cross-package GuardFact lookup.
func (s *lgState) fieldOwner(sel *ast.SelectorExpr, selection *types.Selection) *types.Named {
	t := selection.Recv()
	var owner *types.Named
	for _, idx := range selection.Index() {
		if named := namedOf(t); named != nil {
			owner = named
		}
		_, next, ok := fieldAt(t, idx)
		if !ok {
			return nil
		}
		t = next
	}
	return owner
}

// lgWalk is one function body's critical-section walk.
type lgWalk struct {
	s    *lgState
	fn   *types.Func
	body *ast.BlockStmt
	held map[lockInst]heldLock
	// closures found during the walk, analyzed afterwards from an
	// empty held set.
	queue []*ast.FuncLit
}

func (s *lgState) walkFunc(fd *ast.FuncDecl) {
	fn, _ := s.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	w := &lgWalk{s: s, fn: fn, body: fd.Body, held: make(map[lockInst]heldLock)}
	// //doors:requires-lock methods are checked as if the receiver's
	// mutex were write-held on entry: the caller-side check makes the
	// assumption sound.
	if reqs := s.requires[fn]; len(reqs) > 0 && fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recvObj := s.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
		if recvObj != nil {
			for _, mu := range reqs {
				inst := lockInst{root: recvObj, path: mu}
				muVar, _ := s.recvMutexField(fn, mu)
				id := ""
				if muVar != nil && muVar.Pkg() != nil {
					id = muVar.Pkg().Path() + "." + recvTypeName(fn) + "." + mu
				}
				w.held[inst] = heldLock{mode: modeWrite, typeID: id}
			}
		}
	}
	w.stmt(fd.Body)
	w.drainClosures()
}

func (w *lgWalk) drainClosures() {
	for len(w.queue) > 0 {
		lit := w.queue[0]
		w.queue = w.queue[1:]
		inner := &lgWalk{s: w.s, fn: w.fn, body: lit.Body, held: make(map[lockInst]heldLock)}
		inner.stmt(lit.Body)
		w.queue = append(w.queue, inner.queue...)
	}
}

func (w *lgWalk) clone() map[lockInst]heldLock {
	c := make(map[lockInst]heldLock, len(w.held))
	for k, v := range w.held {
		c[k] = v
	}
	return c
}

// branch walks stmt under a cloned held set and discards its effects:
// locks taken inside a conditional are not held after it, and unlocks
// inside one (usually followed by return) do not release the main
// path's hold.
func (w *lgWalk) branch(stmts ...ast.Stmt) {
	saved := w.held
	w.held = w.clone()
	for _, st := range stmts {
		if st != nil {
			w.stmt(st)
		}
	}
	w.held = saved
}

func (w *lgWalk) stmt(st ast.Stmt) {
	switch x := st.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, s := range x.List {
			w.stmt(s)
		}
	case *ast.ExprStmt:
		w.expr(x.X)
	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			w.expr(rhs)
		}
		for _, lhs := range x.Lhs {
			w.write(lhs)
		}
	case *ast.IncDecStmt:
		w.write(x.X)
	case *ast.DeferStmt:
		w.deferred(x.Call)
	case *ast.GoStmt:
		// The spawned call runs outside this critical section: check
		// it against an empty held set (a requires-lock callee or a
		// literal that locks must stand on its own).
		if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
			w.queue = append(w.queue, lit)
		} else {
			saved := w.held
			w.held = make(map[lockInst]heldLock)
			w.checkCallee(x.Call)
			w.held = saved
			w.expr(x.Call.Fun)
		}
		// Receiver and arguments evaluate synchronously, inside the
		// current critical section.
		for _, a := range x.Call.Args {
			w.expr(a)
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.expr(r)
		}
	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init)
		}
		w.expr(x.Cond)
		w.branch(x.Body)
		if x.Else != nil {
			w.branch(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init)
		}
		if x.Cond != nil {
			w.expr(x.Cond)
		}
		w.branch(x.Body, x.Post)
	case *ast.RangeStmt:
		w.expr(x.X)
		if x.Key != nil {
			w.write(x.Key)
		}
		if x.Value != nil {
			w.write(x.Value)
		}
		w.branch(x.Body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init)
		}
		if x.Tag != nil {
			w.expr(x.Tag)
		}
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			w.branch(cc.Body...)
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init)
		}
		w.branch(x.Assign)
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			w.branch(cc.Body...)
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			stmts := append([]ast.Stmt{cc.Comm}, cc.Body...)
			w.branch(stmts...)
		}
	case *ast.SendStmt:
		w.expr(x.Chan)
		w.expr(x.Value)
	case *ast.LabeledStmt:
		w.stmt(x.Stmt)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

// write records a write access: the outermost selector of the target
// (peeling index expressions — writing s.m[k] mutates the field s.m)
// is checked in write mode, the rest of the chain as reads.
func (w *lgWalk) write(target ast.Expr) {
	e := unparen(target)
	for {
		idx, ok := e.(*ast.IndexExpr)
		if !ok {
			break
		}
		w.expr(idx.Index)
		e = unparen(idx.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		w.access(sel, true)
		w.expr(sel.X)
		return
	}
	w.expr(e)
}

func (w *lgWalk) expr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		w.access(x, false)
		w.expr(x.X)
	case *ast.CallExpr:
		w.call(x)
	case *ast.FuncLit:
		w.queue = append(w.queue, x)
	case *ast.ParenExpr:
		w.expr(x.X)
	case *ast.StarExpr:
		w.expr(x.X)
	case *ast.UnaryExpr:
		w.expr(x.X)
	case *ast.BinaryExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *ast.IndexExpr:
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.SliceExpr:
		w.expr(x.X)
		w.expr(x.Low)
		w.expr(x.High)
		w.expr(x.Max)
	case *ast.TypeAssertExpr:
		w.expr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value)
				continue
			}
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(x.Key)
		w.expr(x.Value)
	}
}

func (w *lgWalk) call(call *ast.CallExpr) {
	if tgt, op, ok := w.s.lockCall(call); ok {
		w.lockOp(call, tgt, op)
		return
	}
	if name, ok := builtinName(w.s.pass.TypesInfo, call.Fun); ok && (name == "delete" || name == "clear") && len(call.Args) > 0 {
		w.write(call.Args[0])
		for _, a := range call.Args[1:] {
			w.expr(a)
		}
		return
	}
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: runs synchronously, inside the
		// current critical section.
		saved := w.held
		w.held = w.clone()
		w.stmt(lit.Body)
		w.held = saved
	} else {
		w.checkCallee(call)
		w.expr(call.Fun)
	}
	for _, a := range call.Args {
		w.expr(a)
	}
}

func (w *lgWalk) deferred(call *ast.CallExpr) {
	if tgt, op, ok := w.s.lockCall(call); ok {
		switch op {
		case opUnlock, opRUnlock:
			// defer mu.Unlock(): the lock stays held to every exit of
			// the region — exactly the model's held-to-end behavior, so
			// nothing to do.
		case opLock, opRLock:
			w.lockOp(call, tgt, op)
		}
		return
	}
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		saved := w.held
		w.held = w.clone()
		w.stmt(lit.Body)
		w.held = saved
	} else {
		w.checkCallee(call)
	}
	for _, a := range call.Args {
		w.expr(a)
	}
}

func (w *lgWalk) lockOp(call *ast.CallExpr, tgt lockTarget, op lockOp) {
	switch op {
	case opLock, opRLock:
		if _, dup := w.held[tgt.inst]; dup {
			w.s.report(call.Pos(), "%s is already held: second acquisition self-deadlocks", instLabel(tgt.inst))
			return
		}
		for _, h := range w.held {
			if h.typeID != "" && tgt.typeID != "" && h.typeID != tgt.typeID {
				w.s.recordPair(h.typeID, tgt.typeID, call.Pos())
			}
		}
		mode := modeWrite
		if op == opRLock {
			mode = modeRead
		}
		w.held[tgt.inst] = heldLock{mode: mode, typeID: tgt.typeID}
	case opUnlock, opRUnlock:
		delete(w.held, tgt.inst)
	}
}

// checkCallee applies the callee's lock contract at the call site:
// required mutexes must be held, and calling something that acquires
// an already-held lock self-deadlocks.
func (w *lgWalk) checkCallee(call *ast.CallExpr) {
	callee := staticCallee(w.s.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	var requires []string
	var acquires []string
	if callee.Pkg() == w.s.pass.Pkg {
		requires = w.s.requires[callee]
		for id := range w.s.acquires[callee] {
			acquires = append(acquires, id)
		}
		sort.Strings(acquires)
	} else {
		var lf LockFact
		if w.s.pass.ImportObjectFact(callee, &lf) {
			requires = lf.Requires
			acquires = lf.Acquires
		}
	}
	if len(requires) > 0 {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			for _, mu := range requires {
				w.checkRequired(call, callee, sel.X, mu)
			}
		}
	}
	for _, id := range acquires {
		for inst, h := range w.held {
			if h.typeID == id {
				w.s.report(call.Pos(), "call to %s acquires %s, which is already held as %s: self-deadlock", funcKey(callee), id, instLabel(inst))
				return
			}
		}
	}
}

func (w *lgWalk) checkRequired(call *ast.CallExpr, callee *types.Func, recvExpr ast.Expr, mu string) {
	root, hops, ok := w.s.chain(recvExpr)
	if ok {
		parts := make([]string, 0, len(hops)+1)
		for _, h := range hops {
			parts = append(parts, h.Name())
		}
		parts = append(parts, mu)
		inst := lockInst{root: root, path: strings.Join(parts, ".")}
		if _, held := w.held[inst]; held {
			return
		}
		w.s.report(call.Pos(), "call to %s requires holding %s (//doors:requires-lock)", funcKey(callee), instLabel(inst))
		return
	}
	// Untrackable receiver chain: fall back to a type-level check.
	muVar, okField := w.s.recvMutexField(callee, mu)
	if !okField || muVar.Pkg() == nil {
		return
	}
	id := muVar.Pkg().Path() + "." + recvTypeName(callee) + "." + mu
	for _, h := range w.held {
		if h.typeID == id {
			return
		}
	}
	w.s.report(call.Pos(), "call to %s requires holding %s (//doors:requires-lock)", funcKey(callee), id)
}

// access checks one field selection against its guard, if any. Values
// still private to their creator — chains rooted at a variable
// declared inside the walked body — are exempt: a constructor may
// initialize guarded fields before the value escapes.
func (w *lgWalk) access(sel *ast.SelectorExpr, isWrite bool) {
	inst, _, fieldName, muName, ok := w.s.guardOf(sel)
	if !ok {
		return
	}
	if inst.root.Pos() >= w.body.Pos() && inst.root.Pos() < w.body.End() {
		return // declared in this body: not shared yet
	}
	h, held := w.held[inst]
	verb := "read"
	if isWrite {
		verb = "written"
	}
	if !held {
		w.s.report(sel.Sel.Pos(), "guarded field %s %s without holding %s (//doors:guardedby %s)", fieldName, verb, instLabel(inst), muName)
		return
	}
	if isWrite && h.mode == modeRead {
		w.s.report(sel.Sel.Pos(), "guarded field %s written while %s is only read-held (RLock): writers need Lock", fieldName, instLabel(inst))
	}
}

func (s *lgState) recordPair(a, b string, pos token.Pos) {
	key := [2]string{a, b}
	if s.pairSeen[key] {
		return
	}
	s.pairSeen[key] = true
	s.pairs = append(s.pairs, lgPair{a: a, b: b, pos: pos})
}

func instLabel(inst lockInst) string {
	if inst.path == "" {
		return inst.root.Name()
	}
	return inst.root.Name() + "." + inst.path
}

// exportFacts publishes each function's lock effect so importing
// packages can run the same checks.
func (s *lgState) exportFacts(decls []*ast.FuncDecl) {
	// Pairs are a whole-package observation but facts attach per
	// object; every lock-active function carries the package's pair
	// set, which keeps the encoding simple and the consumer logic
	// uniform (any one fact delivers the orders).
	pairs := make([][2]string, 0, len(s.pairs))
	for _, p := range s.pairs {
		pairs = append(pairs, [2]string{p.a, p.b})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, fd := range decls {
		fn, _ := s.pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		acq := make([]string, 0, len(s.acquires[fn]))
		for id := range s.acquires[fn] {
			acq = append(acq, id)
		}
		sort.Strings(acq)
		reqs := append([]string(nil), s.requires[fn]...)
		sort.Strings(reqs)
		var fnPairs [][2]string
		if len(acq) > 0 {
			fnPairs = pairs
		}
		if len(acq) == 0 && len(reqs) == 0 {
			continue
		}
		s.pass.ExportObjectFact(fn, &LockFact{Acquires: acq, Requires: reqs, Pairs: fnPairs})
	}
}

// checkInversions reports every locally observed acquisition order
// whose reverse is also observed — here or, via LockFacts, anywhere in
// the build.
func (s *lgState) checkInversions() {
	reversed := make(map[[2]string]string) // (a,b) -> where the reverse was seen
	for _, of := range s.pass.AllObjectFacts() {
		lf, ok := of.Fact.(*LockFact)
		if !ok || of.Object.Pkg() == s.pass.Pkg {
			continue
		}
		for _, p := range lf.Pairs {
			reversed[[2]string{p[1], p[0]}] = fmt.Sprintf("%s (package %s)", funcKey(of.Object.(*types.Func)), of.Object.Pkg().Path())
		}
	}
	for _, p := range s.pairs {
		reversed[[2]string{p.b, p.a}] = "this package"
	}
	for _, p := range s.pairs {
		if where, ok := reversed[[2]string{p.a, p.b}]; ok {
			s.report(p.pos, "lock-order inversion: %s acquired while holding %s, but the reverse order is taken in %s", p.b, p.a, where)
		}
	}
}

// markerArg scans the given comment groups (a field's doc and trailing
// comment) for marker and returns its argument.
func markerArg(marker string, groups ...*ast.CommentGroup) (string, token.Pos, bool) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if strings.HasPrefix(text, marker+" ") {
				return strings.TrimSpace(strings.TrimPrefix(text, marker)), c.Pos(), true
			}
			if text == marker {
				return "", c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}
