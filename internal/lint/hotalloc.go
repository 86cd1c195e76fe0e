package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// hotalloc proves marked hot-path functions transitively allocation-free.
//
// Every function's allocation effect is classified on a three-point
// lattice from AST-level intrinsics, then propagated to a fixpoint over
// the call graph:
//
//	Never     — allocation-free in steady state. Amortized growth of a
//	            retained buffer (x = append(x, ...) and reuse-appends
//	            into buf[:0]) counts as Never: the backing array is
//	            kept, so a warmed-up loop allocates nothing — exactly
//	            the regime the 0 allocs/op benchmarks pin.
//	Bounded   — a one-time lazy initialization (alloc under an
//	            `if x == nil` guard): allocates on the first call only.
//	Unbounded — a fresh allocation on every call.
//
// Intrinsic Unbounded sites: make/new, slice and map literals, &T{...},
// append to a fresh backing array, capturing func literals, method
// values, interface boxing at call sites / assignments / returns /
// conversions, string concatenation and string<->[]byte conversions,
// defer inside a loop, map writes, go statements, and calls into
// packages with no AllocFact (fmt, strconv beyond Append*, sort beyond
// Search, ...) unless the callee is on the curated no-alloc allowlist.
// Dynamic calls (func values, interface methods) are Unbounded because
// the callee is unknowable; a pragma is the escape hatch.
//
// Verdicts are exported as AllocFact object facts, so effects flow
// cross-package through the fact store. Functions marked //doors:hotpath
// (or auto-marked, see autoHotPath) must be Never; a violation reports
// the full call-chain witness down to the allocating expression.
//
// A `//lint:allow hotalloc -- reason` pragma removes the sites on its
// line from classification entirely — the function's exported fact
// improves too, so the pragma is an assertion that the line does not
// allocate per steady-state call (or that its allocations are accounted
// for elsewhere), not merely a report suppression.
//
// Known, deliberate imprecision (backed by the AllocsPerRun
// differential test): variadic argument-slice construction and
// address-taken locals are not counted — both are stack-allocated by
// escape analysis in the patterns this repo uses.
var HotAlloc = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "prove //doors:hotpath functions transitively allocation-free",
	Run:       runHotAlloc,
	FactTypes: []analysis.Fact{(*AllocFact)(nil)},
}

// Allocation effects, ordered: the lattice join is max.
const (
	allocNever = iota
	allocBounded
	allocUnbounded
)

func allocEffectName(e int) string {
	switch e {
	case allocNever:
		return "never"
	case allocBounded:
		return "bounded"
	default:
		return "unbounded"
	}
}

// AllocFact is the exported allocation effect of a function. Chain is
// the witness — one entry per call hop, ending at the allocating
// expression — precomputed at export so cross-package violations can
// show the full path without re-analyzing the callee's package.
type AllocFact struct {
	Effect int
	Chain  []string
}

func (*AllocFact) AFact() {}

func (f *AllocFact) String() string { return allocEffectName(f.Effect) }

// hotPathMarker marks a function whose steady-state must not allocate.
const hotPathMarker = "//doors:hotpath"

// autoHotPath lists functions that are hot by construction — the
// engine's per-event, per-probe and per-row paths — keyed by package
// path suffix. They are checked even without a //doors:hotpath marker,
// so a refactor cannot silently drop one from the proof obligation, and
// an entry naming no function of its package is itself reported.
var autoHotPath = map[string][]string{
	"internal/eventq":   {"Queue.At", "Queue.AtSeq", "Queue.After", "Queue.Step"},
	"internal/detrand":  {"Mix", "HashBytes", "FoldBytes", "AddrWords", "Float64", "Intn"},
	"internal/ditl":     {"ASSpec.NumResolvers", "ASSpec.Resolver", "resolverSlab.spec"},
	"internal/resolver": {"ACL.Allows", "cache.flush"},
	"internal/netsim":   {"Network.judge", "Network.transit", "Network.unwatched", "ingress", "pathHops"},
	"internal/runs":     {"Merger.Next"},
	"internal/scanner":  {"Scanner.sendNext", "Scanner.probeIDs", "Scanner.optedOut", "Categorize", "LessHit", "LessPartial"},
	"internal/routing":  {"SubnetOf", "SubnetCount", "SubnetAt", "IsLoopback", "IsPrivate", "IsSpecialPurpose", "Registry.OriginOf", "Trie.Lookup"},
}

// nonAllocCalls is the curated allowlist of external functions known
// not to allocate per call. Keys are "pkgpath.Func", "pkgpath.Recv.Method",
// or the receiver/package wildcards "pkgpath.Recv.*" / "pkgpath.*".
// strconv's Append* family and netip.Addr.AppendTo append into a caller
// buffer — amortized like any reuse-append. Allowlist entries double as
// "does not retain its arguments" for the retain analyzer.
var nonAllocCalls = map[string]bool{
	"math.*":      true,
	"math/bits.*": true,

	"net/netip.Addr.IsValid":            true,
	"net/netip.Addr.Is4":                true,
	"net/netip.Addr.Is6":                true,
	"net/netip.Addr.Is4In6":             true,
	"net/netip.Addr.Unmap":              true,
	"net/netip.Addr.As16":               true,
	"net/netip.Addr.As4":                true,
	"net/netip.Addr.IsLoopback":         true,
	"net/netip.Addr.IsPrivate":          true,
	"net/netip.Addr.IsMulticast":        true,
	"net/netip.Addr.IsUnspecified":      true,
	"net/netip.Addr.IsLinkLocalUnicast": true,
	"net/netip.Addr.Less":               true,
	"net/netip.Addr.Compare":            true,
	"net/netip.Addr.BitLen":             true,
	"net/netip.Addr.Prefix":             true,
	"net/netip.Addr.Next":               true,
	"net/netip.Addr.Prev":               true,
	"net/netip.Addr.Zone":               true,
	"net/netip.Addr.AppendTo":           true,
	"net/netip.AddrFrom4":               true,
	"net/netip.AddrFrom16":              true,
	"net/netip.PrefixFrom":              true,
	"net/netip.Prefix.Contains":         true,
	"net/netip.Prefix.IsValid":          true,
	"net/netip.Prefix.Addr":             true,
	"net/netip.Prefix.Bits":             true,
	"net/netip.Prefix.Masked":           true,
	"net/netip.Prefix.Overlaps":         true,
	"net/netip.Prefix.IsSingleIP":       true,

	"strconv.AppendInt":  true,
	"strconv.AppendUint": true,

	"sort.Search":     true,
	"sort.SearchInts": true,

	// The endianness codecs put/read/append fixed-width integers; none
	// of the methods allocate.
	"encoding/binary.bigEndian.*":    true,
	"encoding/binary.littleEndian.*": true,
}

// allowlisted reports whether the external function f is on the
// no-alloc allowlist.
func allowlisted(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	if nonAllocCalls[path+".*"] {
		return true
	}
	if recv := recvTypeName(f); recv != "" {
		return nonAllocCalls[path+"."+recv+".*"] || nonAllocCalls[path+"."+recv+"."+f.Name()]
	}
	return nonAllocCalls[path+"."+f.Name()]
}

// recvTypeName returns the name of f's receiver's base type, or "".
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// funcKey returns f's name, method-qualified ("Recv.Method") when it
// has a receiver — the form autoHotPath and witness chains use.
func funcKey(f *types.Func) string {
	if recv := recvTypeName(f); recv != "" {
		return recv + "." + f.Name()
	}
	return f.Name()
}

// haSite is one intrinsic (or externally-resolved) allocation site.
type haSite struct {
	effect int
	reason string
	pos    token.Pos
	chain  []string // witness tail from an imported callee's fact
}

// haEdge is a static call to another function in the same package.
type haEdge struct {
	callee *types.Func
	pos    token.Pos
}

// haFunc is the per-function analysis state.
type haFunc struct {
	decl   *ast.FuncDecl
	obj    *types.Func
	allow  allowed
	sites  []haSite
	edges  []haEdge
	effect int
	hot    bool
	hotWhy string
}

type haState struct {
	pass  *analysis.Pass
	funcs map[*types.Func]*haFunc
	order []*haFunc // declaration order, for deterministic reports
}

func runHotAlloc(pass *analysis.Pass) (interface{}, error) {
	s := &haState{pass: pass, funcs: make(map[*types.Func]*haFunc)}

	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		allow := allowsFor(pass, f, "hotalloc")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fa := &haFunc{decl: fd, obj: obj, allow: allow}
			s.funcs[obj] = fa
			s.order = append(s.order, fa)
		}
	}

	for _, fa := range s.order {
		s.scan(fa)
		s.markHot(fa)
	}
	s.reportStaleAutoMarks()

	// Effect fixpoint over the package call graph: the lattice has
	// height three and joins are monotone, so this terminates.
	for _, fa := range s.order {
		fa.effect = allocNever
		for _, site := range fa.sites {
			if site.effect > fa.effect {
				fa.effect = site.effect
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fa := range s.order {
			for _, e := range fa.edges {
				if callee, ok := s.funcs[e.callee]; ok && callee.effect > fa.effect {
					fa.effect = callee.effect
					changed = true
				}
			}
		}
	}

	// Export facts for every package-level function and method (Never
	// included: an absent fact means "not analyzed", which callers must
	// treat as Unbounded).
	for _, fa := range s.order {
		fact := &AllocFact{Effect: fa.effect}
		if fa.effect != allocNever {
			fact.Chain = s.witness(fa, make(map[*haFunc]bool))
		}
		pass.ExportObjectFact(fa.obj, fact)
	}

	// The proof obligation: hot functions must be transitively Never.
	for _, fa := range s.order {
		if !fa.hot || fa.effect == allocNever {
			continue
		}
		if fa.allow.at(pass, fa.decl.Name.Pos()) {
			continue
		}
		chain := s.witness(fa, make(map[*haFunc]bool))
		pass.Reportf(fa.decl.Name.Pos(),
			"hot-path function %s (%s) must be allocation-free, but allocates (%s): %s",
			funcKey(fa.obj), fa.hotWhy, allocEffectName(fa.effect), strings.Join(chain, " -> "))
	}
	return nil, nil
}

// markHot decides whether fa carries the hot-path proof obligation.
func (s *haState) markHot(fa *haFunc) {
	if hasMarkerComment(fa.decl.Doc, hotPathMarker) {
		fa.hot, fa.hotWhy = true, hotPathMarker
		return
	}
	key := funcKey(fa.obj)
	for suffix, names := range autoHotPath {
		if !pathHasSuffix(s.pass.Pkg.Path(), suffix) {
			continue
		}
		for _, n := range names {
			if n == key {
				fa.hot, fa.hotWhy = true, "auto-marked hot path"
				return
			}
		}
	}
}

// reportStaleAutoMarks reports, at the package clause, every autoHotPath
// entry for this package that names none of its non-test functions: a
// deleted or renamed hot path would otherwise drop its proof obligation
// without a word.
func (s *haState) reportStaleAutoMarks() {
	var suffixes []string
	for suffix := range autoHotPath {
		if pathHasSuffix(s.pass.Pkg.Path(), suffix) {
			suffixes = append(suffixes, suffix)
		}
	}
	if len(suffixes) == 0 {
		return
	}
	sort.Strings(suffixes)
	have := make(map[string]bool, len(s.order))
	for _, fa := range s.order {
		have[funcKey(fa.obj)] = true
	}
	clause := s.pass.Files[0].Package
	for _, suffix := range suffixes {
		for _, name := range autoHotPath[suffix] {
			if !have[name] {
				s.pass.Reportf(clause, "stale autoHotPath entry %q for %s: no function of that name in this package", name, suffix)
			}
		}
	}
}

// hasMarkerComment reports whether the comment group contains marker as
// a standalone comment line (leading "//doors:..." directives).
func hasMarkerComment(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// witness builds the call-chain witness for fa's effect, following the
// worst effect to the earliest-position site or edge at every hop.
func (s *haState) witness(fa *haFunc, visiting map[*haFunc]bool) []string {
	if fa.effect == allocNever {
		return nil
	}
	if visiting[fa] {
		return []string{fmt.Sprintf("%s: recursion", s.displayName(fa.obj))}
	}
	visiting[fa] = true
	defer delete(visiting, fa)

	// Earliest-position source achieving the function's effect wins —
	// a deterministic choice, so facts and reports are stable.
	var (
		bestSite *haSite
		bestEdge *haEdge
		bestPos  token.Pos = -1
	)
	for i := range fa.sites {
		site := &fa.sites[i]
		if site.effect == fa.effect && (bestPos < 0 || site.pos < bestPos) {
			bestSite, bestEdge, bestPos = site, nil, site.pos
		}
	}
	for i := range fa.edges {
		e := &fa.edges[i]
		callee, ok := s.funcs[e.callee]
		if !ok || callee.effect != fa.effect {
			continue
		}
		if bestPos < 0 || e.pos < bestPos {
			bestSite, bestEdge, bestPos = nil, e, e.pos
		}
	}

	const maxChain = 8
	switch {
	case bestSite != nil:
		chain := []string{fmt.Sprintf("%s: %s (%s)", s.displayName(fa.obj), bestSite.reason, s.shortPos(bestSite.pos))}
		chain = append(chain, bestSite.chain...)
		if len(chain) > maxChain {
			chain = append(chain[:maxChain:maxChain], "...")
		}
		return chain
	case bestEdge != nil:
		callee := s.funcs[bestEdge.callee]
		chain := []string{fmt.Sprintf("%s: calls %s (%s)", s.displayName(fa.obj), s.displayName(bestEdge.callee), s.shortPos(bestEdge.pos))}
		chain = append(chain, s.witness(callee, visiting)...)
		if len(chain) > maxChain {
			chain = append(chain[:maxChain:maxChain], "...")
		}
		return chain
	default:
		return []string{fmt.Sprintf("%s: allocates (no witness)", s.displayName(fa.obj))}
	}
}

func (s *haState) displayName(f *types.Func) string {
	return s.pass.Pkg.Name() + "." + funcKey(f)
}

func (s *haState) shortPos(pos token.Pos) string {
	p := s.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// ---- intrinsic scan ----

// haScan walks one function body collecting allocation sites and
// same-package call edges.
type haScan struct {
	s    *haState
	fa   *haFunc
	info *types.Info
	// loopDepth > 0 inside for/range bodies (defer-in-loop detection).
	loopDepth int
	// nilGuarded holds the roots of `if x == nil` / `if len(x) == 0`
	// conditions for the enclosing if bodies: a make/new assigned to a
	// guarded root is a one-time lazy init (Bounded, not Unbounded).
	nilGuarded []types.Object
}

func (s *haState) scan(fa *haFunc) {
	sc := &haScan{s: s, fa: fa, info: s.pass.TypesInfo}
	sc.stmt(fa.decl.Body)
}

// site records an allocation site unless a pragma covers its line.
func (sc *haScan) site(pos token.Pos, effect int, reason string, chain []string) {
	if sc.fa.allow.at(sc.s.pass, pos) {
		return
	}
	sc.fa.sites = append(sc.fa.sites, haSite{effect: effect, reason: reason, pos: pos, chain: chain})
}

func (sc *haScan) stmt(n ast.Stmt) {
	switch n := n.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range n.List {
			sc.stmt(st)
		}
	case *ast.ForStmt:
		sc.stmt(n.Init)
		sc.expr(n.Cond)
		sc.stmt(n.Post)
		sc.loopDepth++
		sc.stmt(n.Body)
		sc.loopDepth--
	case *ast.RangeStmt:
		sc.expr(n.X)
		sc.loopDepth++
		sc.stmt(n.Body)
		sc.loopDepth--
	case *ast.IfStmt:
		sc.stmt(n.Init)
		sc.expr(n.Cond)
		if root := nilGuardRoot(sc.info, n.Cond); root != nil {
			sc.nilGuarded = append(sc.nilGuarded, root)
			sc.stmt(n.Body)
			sc.nilGuarded = sc.nilGuarded[:len(sc.nilGuarded)-1]
		} else {
			sc.stmt(n.Body)
		}
		sc.stmt(n.Else)
	case *ast.SwitchStmt:
		sc.stmt(n.Init)
		sc.expr(n.Tag)
		sc.stmt(n.Body)
	case *ast.TypeSwitchStmt:
		sc.stmt(n.Init)
		sc.stmt(n.Assign)
		sc.stmt(n.Body)
	case *ast.SelectStmt:
		sc.stmt(n.Body)
	case *ast.CaseClause:
		for _, e := range n.List {
			sc.expr(e)
		}
		for _, st := range n.Body {
			sc.stmt(st)
		}
	case *ast.CommClause:
		sc.stmt(n.Comm)
		for _, st := range n.Body {
			sc.stmt(st)
		}
	case *ast.LabeledStmt:
		sc.stmt(n.Stmt)
	case *ast.ExprStmt:
		sc.expr(n.X)
	case *ast.AssignStmt:
		sc.assign(n)
	case *ast.IncDecStmt:
		if idx, ok := unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(sc.info, idx) {
			sc.site(n.Pos(), allocUnbounded, "map write may grow the table", nil)
		}
		sc.expr(n.X)
	case *ast.DeferStmt:
		if sc.loopDepth > 0 {
			sc.site(n.Pos(), allocUnbounded, "defer inside a loop allocates per iteration", nil)
		}
		sc.call(n.Call)
	case *ast.GoStmt:
		sc.site(n.Pos(), allocUnbounded, "go statement allocates a goroutine", nil)
		sc.call(n.Call)
	case *ast.ReturnStmt:
		sig, _ := sc.fa.obj.Type().(*types.Signature)
		for i, e := range n.Results {
			if sig != nil && len(n.Results) == sig.Results().Len() {
				sc.boxCheck(e, sig.Results().At(i).Type())
			}
			sc.expr(e)
		}
	case *ast.SendStmt:
		sc.expr(n.Chan)
		sc.expr(n.Value)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, v := range vs.Values {
				if i < len(vs.Names) {
					if obj := sc.info.Defs[vs.Names[i]]; obj != nil {
						sc.boxCheck(v, obj.Type())
					}
				}
				sc.expr(v)
			}
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// assign handles LHS-context intrinsics: map writes, string +=,
// interface boxing, and append classification (which needs to see both
// sides to tell amortized self-growth from a fresh backing array).
func (sc *haScan) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		if idx, ok := unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(sc.info, idx) {
			sc.site(lhs.Pos(), allocUnbounded, "map write may grow the table", nil)
		}
		sc.expr(lhsSubexprs(lhs))
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(sc.info.TypeOf(n.Lhs[0])) {
		sc.site(n.Pos(), allocUnbounded, "string concatenation allocates", nil)
	}
	if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if t := sc.info.TypeOf(n.Lhs[i]); t != nil {
				sc.boxCheck(rhs, t)
			}
		}
	}
	// y = append(x, ...): amortized when the destination is the same
	// buffer (y and x share a root) or x reslices an existing buffer
	// (append(buf[:0], ...) reuse); a fresh backing array otherwise.
	// x = make(...) under an `if x == nil` guard on the same root is
	// the one-time lazy-init pattern: Bounded, not Unbounded.
	for i, rhs := range n.Rhs {
		var lhs ast.Expr
		if len(n.Lhs) == len(n.Rhs) {
			lhs = n.Lhs[i]
		}
		if call, ok := unparen(rhs).(*ast.CallExpr); ok && len(call.Args) > 0 {
			if isBuiltin(sc.info, call, "append") {
				sc.appendSite(call, lhs)
				for _, a := range call.Args {
					sc.expr(a)
				}
				continue
			}
			if name, ok := builtinName(sc.info, call.Fun); ok && (name == "make" || name == "new") &&
				lhs != nil && sc.guardedRoot(chainRootObject(sc.info, lhs)) {
				sc.site(call.Pos(), allocBounded, "one-time lazy "+name+" under nil guard", nil)
				for _, a := range call.Args {
					sc.expr(a)
				}
				continue
			}
		}
		sc.expr(rhs)
	}
}

// guardedRoot reports whether obj is the root of an enclosing
// `if x == nil` / `if len(x) == 0` condition.
func (sc *haScan) guardedRoot(obj types.Object) bool {
	if obj == nil {
		return false
	}
	for _, g := range sc.nilGuarded {
		if g == obj {
			return true
		}
	}
	return false
}

// lhsSubexprs returns the part of an assignment LHS worth scanning for
// allocation sites (index expressions, selector bases) — the LHS
// itself is a write target, not a value read.
func lhsSubexprs(lhs ast.Expr) ast.Expr {
	switch l := unparen(lhs).(type) {
	case *ast.IndexExpr:
		return l.X
	case *ast.SelectorExpr:
		return l.X
	case *ast.StarExpr:
		return l.X
	default:
		return nil
	}
}

func (sc *haScan) appendSite(call *ast.CallExpr, lhs ast.Expr) {
	src := call.Args[0]
	srcRoot := chainRootObject(sc.info, src)
	// Reslicing an existing buffer (append(buf[:0], ...)) reuses its
	// backing array: amortized, Never.
	if _, resliced := unparen(src).(*ast.SliceExpr); resliced && srcRoot != nil {
		return
	}
	if lhs != nil && srcRoot != nil && chainRootObject(sc.info, lhs) == srcRoot {
		return // x = append(x, ...): retained buffer self-growth
	}
	sc.site(call.Pos(), allocUnbounded, "append allocates a new backing array", nil)
}

func (sc *haScan) expr(n ast.Expr) {
	switch n := n.(type) {
	case nil:
	case *ast.FuncLit:
		// A func literal's body runs when the closure is called, not
		// here; creating a capturing closure is the allocation.
		if capt := captured(sc.info, n); capt != "" {
			sc.site(n.Pos(), allocUnbounded, "closure capturing "+capt+" allocates", nil)
		}
	case *ast.CallExpr:
		sc.call(n)
	case *ast.CompositeLit:
		sc.compositeLit(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
				sc.site(n.Pos(), allocUnbounded, "address of composite literal escapes to the heap", nil)
			}
		}
		sc.expr(n.X)
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isStringType(sc.info.TypeOf(n)) && !isConstExpr(sc.info, n) {
			sc.site(n.Pos(), allocUnbounded, "string concatenation allocates", nil)
		}
		sc.expr(n.X)
		sc.expr(n.Y)
	case *ast.SelectorExpr:
		if sel, ok := sc.info.Selections[n]; ok && sel.Kind() == types.MethodVal {
			sc.site(n.Pos(), allocUnbounded, "method value allocates a bound closure", nil)
		}
		sc.expr(n.X)
	case *ast.ParenExpr:
		sc.expr(n.X)
	case *ast.StarExpr:
		sc.expr(n.X)
	case *ast.IndexExpr:
		sc.expr(n.X)
		sc.expr(n.Index)
	case *ast.IndexListExpr:
		sc.expr(n.X)
	case *ast.SliceExpr:
		sc.expr(n.X)
		sc.expr(n.Low)
		sc.expr(n.High)
		sc.expr(n.Max)
	case *ast.TypeAssertExpr:
		sc.expr(n.X)
	case *ast.KeyValueExpr:
		sc.expr(n.Key)
		sc.expr(n.Value)
	case *ast.Ident, *ast.BasicLit, *ast.ArrayType, *ast.MapType,
		*ast.StructType, *ast.InterfaceType, *ast.ChanType, *ast.FuncType, *ast.Ellipsis:
	}
}

func (sc *haScan) compositeLit(n *ast.CompositeLit) {
	t := sc.info.TypeOf(n)
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Slice:
			sc.site(n.Pos(), allocUnbounded, "slice literal allocates", nil)
		case *types.Map:
			sc.site(n.Pos(), allocUnbounded, "map literal allocates", nil)
		}
	}
	for _, e := range n.Elts {
		sc.expr(e)
	}
}

// call classifies one call expression: builtin, conversion, static
// (edge or fact/allowlist lookup) or dynamic.
func (sc *haScan) call(n *ast.CallExpr) {
	info := sc.info

	// Type conversions: T(x).
	if tv, ok := info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
		sc.conversion(n)
		sc.expr(n.Args[0])
		return
	}

	// Builtins.
	if name, ok := builtinName(info, n.Fun); ok {
		switch name {
		case "make":
			sc.site(n.Pos(), allocUnbounded, "make allocates", nil)
		case "new":
			sc.site(n.Pos(), allocUnbounded, "new allocates", nil)
		case "append":
			// Not in assignment position (assign handles that): the
			// result lands in a fresh or unknown destination.
			sc.appendSite(n, nil)
		}
		for _, a := range n.Args {
			sc.expr(a)
		}
		return
	}

	if f := staticCallee(info, n); f != nil {
		sc.boxArgs(n, f)
		if f.Pkg() == sc.s.pass.Pkg {
			if !sc.fa.allow.at(sc.s.pass, n.Pos()) {
				sc.fa.edges = append(sc.fa.edges, haEdge{callee: f, pos: n.Pos()})
			}
		} else if !allowlisted(f) {
			fact := new(AllocFact)
			name := callDisplayName(f)
			if sc.s.pass.ImportObjectFact(f, fact) {
				if fact.Effect != allocNever {
					sc.site(n.Pos(), fact.Effect, "calls "+name, fact.Chain)
				}
			} else {
				sc.site(n.Pos(), allocUnbounded, "calls "+name+" (no allocation fact; assumed allocating)", nil)
			}
		}
	} else {
		sc.site(n.Pos(), allocUnbounded, dynamicCallReason(info, n), nil)
	}

	sc.exprSkipMethodValue(n.Fun)
	for _, a := range n.Args {
		sc.expr(a)
	}
}

// exprSkipMethodValue scans a call's Fun operand without treating the
// selected method as a method-value closure (it is being called, not
// captured).
func (sc *haScan) exprSkipMethodValue(fun ast.Expr) {
	if sel, ok := unparen(fun).(*ast.SelectorExpr); ok {
		sc.expr(sel.X)
		return
	}
	if _, ok := unparen(fun).(*ast.Ident); ok {
		return
	}
	sc.expr(fun)
}

// conversion classifies T(x) conversions that allocate: string<->byte
// or rune slices, integer-to-string, and boxing into an interface.
// Constant-folded conversions are free.
func (sc *haScan) conversion(n *ast.CallExpr) {
	if isConstExpr(sc.info, n) {
		return
	}
	dst := sc.info.TypeOf(n)
	src := sc.info.TypeOf(n.Args[0])
	if dst == nil || src == nil {
		return
	}
	dstStr, srcStr := isStringType(dst), isStringType(src)
	dstBytes, srcBytes := isByteOrRuneSlice(dst), isByteOrRuneSlice(src)
	switch {
	case dstStr && srcBytes, dstBytes && srcStr:
		sc.site(n.Pos(), allocUnbounded, "string conversion copies", nil)
	case dstStr && isIntegerType(src):
		sc.site(n.Pos(), allocUnbounded, "integer-to-string conversion allocates", nil)
	default:
		sc.boxCheck(n.Args[0], dst)
	}
}

// boxCheck records a boxing site when a concrete, non-pointer-shaped
// value is stored into an interface-typed destination.
func (sc *haScan) boxCheck(val ast.Expr, dstType types.Type) {
	if dstType == nil || !types.IsInterface(dstType.Underlying()) {
		return
	}
	src := sc.info.TypeOf(val)
	if src == nil || types.IsInterface(src.Underlying()) {
		return
	}
	if tv, ok := sc.info.Types[val]; ok && tv.IsNil() {
		return
	}
	if pointerShaped(src) {
		return
	}
	sc.site(val.Pos(), allocUnbounded, "interface boxing of a non-pointer value allocates", nil)
}

// boxArgs applies boxCheck across a static call's arguments, including
// the elements of a variadic interface parameter.
func (sc *haScan) boxArgs(n *ast.CallExpr, f *types.Func) {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if n.Ellipsis.IsValid() {
				continue // the slice is passed through, no per-element boxing
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		sc.boxCheck(arg, pt)
	}
}

// ---- shared expression helpers ----

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// chainRootObject resolves the root object of a selector/index/slice
// chain: chainRootObject(s.buf[:0]) is s.
func chainRootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// staticCallee resolves a call to the *types.Func it statically
// invokes, or nil for dynamic calls (func values, interface methods).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // func-typed field: dynamic
			}
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
				if types.IsInterface(sig.Recv().Type().Underlying()) {
					return nil // interface method: dynamic dispatch
				}
			}
			return f
		}
		// Package-qualified call (pkg.F) or method expression.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func dynamicCallReason(info *types.Info, call *ast.CallExpr) string {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return "dynamic interface call " + sel.Sel.Name + " (callee unknown; assumed allocating)"
		}
		return "dynamic call through func value " + sel.Sel.Name + " (callee unknown; assumed allocating)"
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		return "dynamic call through func value " + id.Name + " (callee unknown; assumed allocating)"
	}
	return "dynamic call (callee unknown; assumed allocating)"
}

// callDisplayName is how an external callee appears in witness chains.
func callDisplayName(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Name() + "."
	}
	return pkg + funcKey(f)
}

func builtinName(info *types.Info, fun ast.Expr) (string, bool) {
	id, ok := unparen(fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	n, ok := builtinName(info, call.Fun)
	return ok && n == name
}

func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// pointerShaped reports whether values of t fit in an interface word
// without boxing.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Basic:
		if b, ok := t.Underlying().(*types.Basic); ok {
			return b.Kind() == types.UnsafePointer
		}
		return true
	}
	return false
}

// nilGuardRoot recognizes `x == nil`, `nil == x` and `len(x) == 0`
// conditions and returns x's root object.
func nilGuardRoot(info *types.Info, cond ast.Expr) types.Object {
	be, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return nil
	}
	x, y := unparen(be.X), unparen(be.Y)
	if tv, ok := info.Types[y]; !ok || !tv.IsNil() {
		if tv, ok := info.Types[x]; ok && tv.IsNil() {
			x = y
		} else if call, ok := x.(*ast.CallExpr); ok && isBuiltin(info, call, "len") && isZeroLit(y) && len(call.Args) == 1 {
			return chainRootObject(info, call.Args[0])
		} else {
			return nil
		}
	}
	return chainRootObject(info, x)
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}

// captured returns the name of a variable the func literal captures
// from its enclosing function, or "" when it captures nothing (a
// non-capturing closure is a static function value: no allocation).
func captured(info *types.Info, lit *ast.FuncLit) string {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil {
			return true
		}
		// Package-level variables are not captures; neither is anything
		// declared inside the literal itself.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		name = v.Name()
		return false
	})
	return name
}
