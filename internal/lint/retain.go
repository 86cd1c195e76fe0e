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

// retain proves that callees do not keep references to caller-owned
// scratch. The streaming population view (ditl.View.EachAS) hands every
// callback one reused *ASSpec and one reused dedup map; anything that
// stores those — or anything aliasing their memory — past the call
// corrupts the next AS. A parameter named in a `//doors:scratch a b`
// line of a function's doc comment must not be:
//
//   - stored into a struct field, global, map, slice element or
//     dereferenced pointer whose root is not itself scratch-derived,
//   - appended into a foreign slice whose elements hold references
//     (into a slice of plain values, an append copies),
//   - sent on a channel,
//   - captured by a func literal (conservatively: any closure), or
//   - passed to a callee that may retain that parameter position.
//
// Returning scratch is legal: the caller owns what comes back.
//
// Retention is classified for every function — not just marked ones —
// and exported as RetainsFact object facts, so the taint follows calls
// across package boundaries through the fact store (world.buildTargetAS's
// scratch proof rests on ditl's exported facts). Declared scratch
// parameters are exported as ScratchFact for the audit surface.
//
// Taint flows through aliases of the scratch memory: whole-value
// assignments, slicing, address-of, conversions, type assertions, and
// field/index reads that yield reference types (pointers, slices,
// maps, channels, funcs, interfaces). Reads that yield plain values —
// struct copies, strings, numbers — cut the taint: retaining a copy is
// not retaining scratch. Call results are untainted (a callee
// returning its argument launders taint — a known limitation,
// documented in DESIGN.md §12).
var Retain = &analysis.Analyzer{
	Name:      "retain",
	Doc:       "prove //doors:scratch parameters are not retained by callees",
	Run:       runRetain,
	FactTypes: []analysis.Fact{(*ScratchFact)(nil), (*RetainsFact)(nil)},
}

// scratchMarker declares caller-owned scratch parameters by name.
const scratchMarker = "//doors:scratch"

// ScratchFact records which parameters a function declares as
// caller-owned scratch. Parameter indices are 1-based with the
// receiver, when present, at index 0.
type ScratchFact struct {
	Params []int
}

func (*ScratchFact) AFact() {}

func (f *ScratchFact) String() string {
	return "scratch(" + joinInts(f.Params) + ")"
}

// RetainsFact records the parameter positions a function may retain
// past its return, with a witness chain per position. Indices are
// 1-based with the receiver at 0, like ScratchFact.
type RetainsFact struct {
	Params []int
	Why    []string // parallel to Params: witness chains, " -> " joined
}

func (*RetainsFact) AFact() {}

func (f *RetainsFact) String() string {
	return "retains(" + joinInts(f.Params) + ")"
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// rtParam is one taintable parameter of a function.
type rtParam struct {
	idx     int // 0 = receiver, 1..N = parameters
	obj     *types.Var
	scratch bool
}

// rtRetention is one way a parameter escapes the call.
type rtRetention struct {
	pos token.Pos
	why string
}

// rtFunc is the per-function retention state.
type rtFunc struct {
	decl     *ast.FuncDecl
	obj      *types.Func
	allow    allowed
	params   []rtParam
	retained map[int]rtRetention // param idx -> first retention witness
}

type rtState struct {
	pass  *analysis.Pass
	funcs map[*types.Func]*rtFunc
	order []*rtFunc
}

func runRetain(pass *analysis.Pass) (interface{}, error) {
	s := &rtState{pass: pass, funcs: make(map[*types.Func]*rtFunc)}

	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		allow := allowsFor(pass, f, "retain")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			rf := &rtFunc{decl: fd, obj: obj, allow: allow, retained: make(map[int]rtRetention)}
			rf.params = s.collectParams(rf)
			s.funcs[obj] = rf
			s.order = append(s.order, rf)
		}
	}

	// Retention fixpoint: a function's retained set depends on its
	// same-package callees' sets; iterate until stable (monotone over
	// finite sets, so this terminates).
	for changed := true; changed; {
		changed = false
		for _, rf := range s.order {
			before := len(rf.retained)
			s.classify(rf)
			if len(rf.retained) != before {
				changed = true
			}
		}
	}

	for _, rf := range s.order {
		s.export(rf)
		s.report(rf)
	}
	return nil, nil
}

// collectParams resolves the function's taintable parameters and its
// //doors:scratch declarations. A marker naming no parameter is itself
// a finding — stale markers must not rot silently.
func (s *rtState) collectParams(rf *rtFunc) []rtParam {
	scratch := scratchNames(rf.decl.Doc)
	named := make(map[string]bool, len(scratch))
	var params []rtParam

	addVar := func(idx int, v *types.Var) {
		if v == nil || v.Name() == "" || v.Name() == "_" {
			return
		}
		if !taintable(v.Type()) {
			if scratch[v.Name()] {
				s.pass.Reportf(rf.decl.Name.Pos(),
					"//doors:scratch %s: parameter has value type %s, which cannot retain scratch memory", v.Name(), v.Type())
				named[v.Name()] = true
			}
			return
		}
		params = append(params, rtParam{idx: idx, obj: v, scratch: scratch[v.Name()]})
		if scratch[v.Name()] {
			named[v.Name()] = true
		}
	}

	sig, _ := rf.obj.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		addVar(0, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		addVar(i+1, sig.Params().At(i))
	}
	for name := range scratch {
		if !named[name] {
			s.pass.Reportf(rf.decl.Name.Pos(), "//doors:scratch %s names no parameter of %s", name, rf.decl.Name.Name)
		}
	}
	return params
}

// scratchNames parses every //doors:scratch line of a doc comment.
func scratchNames(cg *ast.CommentGroup) map[string]bool {
	if cg == nil {
		return nil
	}
	names := make(map[string]bool)
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, scratchMarker) {
			continue
		}
		for _, name := range strings.Fields(text[len(scratchMarker):]) {
			names[name] = true
		}
	}
	return names
}

// taintable reports whether a value of type t can alias memory the
// caller handed in: references and aggregates containing them.
// Strings are exempt — immutable, so holding one cannot corrupt
// scratch.
func taintable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if taintable(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return taintable(u.Elem())
	}
	return false
}

// referenceShaped reports whether reading a value of type t out of
// scratch still aliases scratch memory. Struct and array reads are
// copies; strings are immutable — both cut taint.
func referenceShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// classify runs one retention pass over rf's body: propagate aliases
// to a local fixpoint, then record retention events.
func (s *rtState) classify(rf *rtFunc) {
	if len(rf.params) == 0 {
		return
	}
	taint := make(map[types.Object]int)
	for _, p := range rf.params {
		taint[p.obj] = p.idx
	}

	cl := &rtClassify{s: s, rf: rf, taint: taint}
	// Alias pass to fixpoint: `x := as.resolvers; y := x` needs two rounds
	// when declared out of order across loop bodies.
	for changed := true; changed; {
		changed = false
		ast.Inspect(rf.decl.Body, func(n ast.Node) bool {
			if a, ok := n.(*ast.AssignStmt); ok && cl.alias(a) {
				changed = true
			}
			if r, ok := n.(*ast.RangeStmt); ok && cl.rangeAlias(r) {
				changed = true
			}
			return true
		})
	}
	cl.events(rf.decl.Body)
}

type rtClassify struct {
	s     *rtState
	rf    *rtFunc
	taint map[types.Object]int
}

// taintOf returns the scratch parameter index an expression's value
// may alias, or -1.
func (cl *rtClassify) taintOf(e ast.Expr) int {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if obj := cl.s.pass.TypesInfo.ObjectOf(x); obj != nil {
			if idx, ok := cl.taint[obj]; ok {
				return idx
			}
		}
	case *ast.SelectorExpr:
		if _, isPkg := cl.s.pass.TypesInfo.Uses[x.Sel].(*types.Func); isPkg {
			return -1 // method value / package func reference
		}
		if referenceShaped(cl.s.pass.TypesInfo.TypeOf(e)) {
			return cl.taintOf(x.X)
		}
	case *ast.IndexExpr:
		if referenceShaped(cl.s.pass.TypesInfo.TypeOf(e)) {
			return cl.taintOf(x.X)
		}
	case *ast.SliceExpr:
		return cl.taintOf(x.X)
	case *ast.StarExpr:
		if referenceShaped(cl.s.pass.TypesInfo.TypeOf(e)) {
			return cl.taintOf(x.X)
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return cl.taintOf(x.X)
		}
	case *ast.TypeAssertExpr:
		return cl.taintOf(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if idx := cl.taintOf(v); idx >= 0 {
				return idx
			}
		}
	case *ast.CallExpr:
		// Conversions and append alias their operand; other call
		// results are considered fresh (documented limitation).
		if tv, ok := cl.s.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return cl.taintOf(x.Args[0])
		}
		if isBuiltin(cl.s.pass.TypesInfo, x, "append") && len(x.Args) > 0 {
			return cl.taintOf(x.Args[0])
		}
	}
	return -1
}

// alias propagates taint through plain assignments to local variables.
// Reports whether any new object became tainted.
func (cl *rtClassify) alias(n *ast.AssignStmt) bool {
	if len(n.Lhs) != len(n.Rhs) {
		return false
	}
	changed := false
	for i, lhs := range n.Lhs {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := cl.s.pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			continue
		}
		if _, already := cl.taint[obj]; already {
			continue
		}
		if idx := cl.taintOf(n.Rhs[i]); idx >= 0 {
			cl.taint[obj] = idx
			changed = true
		}
	}
	return changed
}

// rangeAlias taints range variables over tainted collections when the
// element type still references scratch memory.
func (cl *rtClassify) rangeAlias(n *ast.RangeStmt) bool {
	idx := cl.taintOf(n.X)
	if idx < 0 || n.Value == nil {
		return false
	}
	id, ok := unparen(n.Value).(*ast.Ident)
	if !ok {
		return false
	}
	obj := cl.s.pass.TypesInfo.ObjectOf(id)
	if obj == nil || !referenceShaped(obj.Type()) {
		return false
	}
	if _, already := cl.taint[obj]; already {
		return false
	}
	cl.taint[obj] = idx
	return true
}

// retain records a retention of param idx unless a pragma covers the
// site's line.
func (cl *rtClassify) retain(idx int, pos token.Pos, why string) {
	if cl.rf.allow.at(cl.s.pass, pos) {
		return
	}
	if _, ok := cl.rf.retained[idx]; ok {
		return
	}
	cl.rf.retained[idx] = rtRetention{pos: pos, why: why}
}

// events walks the body recording retention events against the current
// taint set.
func (cl *rtClassify) events(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			cl.assignEvents(n)
		case *ast.SendStmt:
			if idx := cl.taintOf(n.Value); idx >= 0 {
				cl.retain(idx, n.Pos(), "sent on a channel")
			}
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				if idx := cl.taintOf(a); idx >= 0 {
					cl.retain(idx, a.Pos(), "passed to a goroutine, which may outlive the call")
				}
			}
			cl.callEvents(n.Call)
			return true
		case *ast.CallExpr:
			cl.callEvents(n)
		case *ast.FuncLit:
			cl.closureEvents(n)
			return false // captures checked; the body runs under the closure's own rules
		}
		return true
	})
}

// assignEvents flags tainted values stored through a write target whose
// root is not itself scratch-derived.
func (cl *rtClassify) assignEvents(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	info := cl.s.pass.TypesInfo
	for i, lhs := range n.Lhs {
		rhs := n.Rhs[i]

		// append(x, tainted...) with a foreign destination. Into a
		// slice of plain values (plainElems), an appended value or a
		// spread is copied, not kept.
		if call, ok := unparen(rhs).(*ast.CallExpr); ok && isBuiltin(info, call, "append") && !plainElems(info.TypeOf(call)) {
			for _, el := range call.Args[1:] {
				idx := cl.taintOf(el)
				if idx < 0 {
					continue
				}
				switch dst := cl.taintOf(call.Args[0]); {
				case dst == idx:
					// appending scratch into its own structure
				case dst >= 0:
					cl.retain(idx, el.Pos(), "appended into another parameter, which outlives the call")
				default:
					cl.retain(idx, el.Pos(), "appended to a slice that outlives the call")
				}
			}
		}

		idx := cl.taintOf(rhs)
		if idx < 0 {
			continue
		}
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(l)
			if obj == nil {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				cl.retain(idx, lhs.Pos(), "stored in package variable "+v.Name())
			}
			// Locals are aliases, handled by the alias pass.
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			rootIdx := cl.taintOf(chainBase(lhs))
			if rootIdx == idx {
				continue // writing scratch into itself is the point of scratch
			}
			if rootIdx >= 0 {
				cl.retain(idx, lhs.Pos(), "stored into another parameter, which outlives the call")
				continue
			}
			cl.retain(idx, lhs.Pos(), storeKind(info, lhs))
		}
	}
}

// plainElems reports whether t is a slice whose elements hold no
// reference (taintable is false): bytes, numbers, strings, structs of
// them. Appending into one copies each value, a converted string or a
// spread of bytes included, so nothing appended aliases scratch.
func plainElems(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && !taintable(s.Elem())
}

// chainBase peels one write-target layer to the expression whose taint
// decides whether the store stays inside scratch.
func chainBase(lhs ast.Expr) ast.Expr {
	switch l := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return l.X
	case *ast.IndexExpr:
		return l.X
	case *ast.StarExpr:
		return l.X
	}
	return lhs
}

func storeKind(info *types.Info, lhs ast.Expr) string {
	switch l := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "stored in field " + l.Sel.Name + " of an object that outlives the call"
	case *ast.IndexExpr:
		if isMapIndex(info, l) {
			return "stored in a map that outlives the call"
		}
		return "stored in a slice element that outlives the call"
	case *ast.StarExpr:
		return "stored through a pointer that outlives the call"
	}
	return "stored outside the call"
}

// callEvents checks tainted arguments (and receivers) against the
// callee's retention classification.
func (cl *rtClassify) callEvents(n *ast.CallExpr) {
	info := cl.s.pass.TypesInfo
	if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if _, ok := builtinName(info, n.Fun); ok {
		return // append handled in assignEvents; other builtins do not retain
	}

	f := staticCallee(info, n)
	var recvArg ast.Expr
	if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recvArg = sel.X
		}
	}

	check := func(argIdx int, e ast.Expr) {
		idx := cl.taintOf(e)
		if idx < 0 {
			return
		}
		switch {
		case f == nil:
			cl.retain(idx, e.Pos(), "passed to a dynamic call (callee unknown; assumed to retain)")
		case f.Pkg() == cl.s.pass.Pkg:
			callee, ok := cl.s.funcs[f]
			if !ok {
				cl.retain(idx, e.Pos(), "passed to "+callDisplayName(f)+" (no body analyzed; assumed to retain)")
				return
			}
			if r, retains := callee.retained[argIdx]; retains {
				cl.retain(idx, e.Pos(), fmt.Sprintf("passed to %s, which retains it: %s",
					callDisplayName(f), r.why))
			}
		default:
			fact := new(RetainsFact)
			if cl.s.pass.ImportObjectFact(f, fact) {
				for i, p := range fact.Params {
					if p == argIdx {
						cl.retain(idx, e.Pos(), fmt.Sprintf("passed to %s, which retains it: %s",
							callDisplayName(f), fact.Why[i]))
					}
				}
			} else if !allowlisted(f) {
				cl.retain(idx, e.Pos(), "passed to "+callDisplayName(f)+" (no retention fact; assumed to retain)")
			}
		}
	}

	if recvArg != nil {
		check(0, recvArg)
	}
	for i, a := range n.Args {
		check(i+1, a)
	}
}

// closureEvents flags closures capturing tainted variables. This is
// conservative — even a closure that never escapes counts — because
// deciding closure escape soundly needs the analysis this lattice
// deliberately avoids.
func (cl *rtClassify) closureEvents(lit *ast.FuncLit) {
	info := cl.s.pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		if idx, tainted := cl.taint[v]; tainted {
			cl.retain(idx, id.Pos(), "captured by a closure")
		}
		return true
	})
}

// export publishes the function's scratch declarations and retention
// classification as facts.
func (s *rtState) export(rf *rtFunc) {
	var scratch []int
	for _, p := range rf.params {
		if p.scratch {
			scratch = append(scratch, p.idx)
		}
	}
	if len(scratch) > 0 {
		s.pass.ExportObjectFact(rf.obj, &ScratchFact{Params: scratch})
	}

	idxs := make([]int, 0, len(rf.retained))
	for idx := range rf.retained {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	fact := &RetainsFact{}
	for _, idx := range idxs {
		fact.Params = append(fact.Params, idx)
		fact.Why = append(fact.Why, rf.retained[idx].why)
	}
	// Exported even when empty: an empty RetainsFact is the positive
	// verdict "retains nothing", distinct from "never analyzed".
	s.pass.ExportObjectFact(rf.obj, fact)
}

// report raises violations for declared scratch parameters that the
// classification says may be retained.
func (s *rtState) report(rf *rtFunc) {
	for _, p := range rf.params {
		if !p.scratch {
			continue
		}
		r, retains := rf.retained[p.idx]
		if !retains {
			continue
		}
		s.pass.Reportf(r.pos, "scratch parameter %q of %s may be retained: %s",
			p.obj.Name(), rf.decl.Name.Name, r.why)
	}
}
