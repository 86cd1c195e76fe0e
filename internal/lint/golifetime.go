package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// golifetime requires every goroutine in non-test code to have a
// provable bounded lifetime. A long-running process cannot afford
// spawn sites that leak: a goroutine nobody joins and nobody can cancel
// is memory the process never gets back and work no shutdown can stop.
//
// A `go` statement passes if the spawn is:
//
//   - WaitGroup-joined: the spawned body calls wg.Done (usually
//     deferred), a wg.Add on the same WaitGroup precedes the spawn in
//     the spawner's own flow, and wg.Wait is reachable in the spawner.
//     wg.Add placed inside the spawned goroutine is its own finding —
//     Add must dominate the spawn or Wait can return before the
//     goroutine is counted.
//   - channel-joined: the spawned body sends on (or closes) a channel
//     the spawner receives from, so the spawner cannot return before
//     the goroutine's result is consumed.
//   - cancelable: the spawned body receives from ctx.Done() (or calls
//     ctx.Err in a loop guard), or receives from a done-channel that is
//     a parameter of the spawner or of the spawned literal — the
//     caller holds a lever that ends the goroutine.
//
// For `go f(args...)` with a named callee the same evidence is looked
// for in the arguments: a *sync.WaitGroup argument (Done assumed in
// the callee, Add/Wait still checked here), a channel argument the
// spawner receives from, or a context.Context argument.
//
// Anything else is a leaked-goroutine finding. True daemons — spawn
// sites that are meant to outlive their spawner — declare themselves
// with `//lint:allow golifetime -- <why>`.
var GoLifetime = &analysis.Analyzer{
	Name: "golifetime",
	Doc:  "every go statement must be joined or cancelable (no leaked goroutines)",
	Run:  runGoLifetime,
}

func runGoLifetime(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		allow := allowsFor(pass, f, "golifetime")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := &glCheck{pass: pass, allow: allow}
			g.context(fd.Body, paramObjs(pass, fd.Recv, fd.Type.Params))
		}
	}
	return nil, nil
}

type glCheck struct {
	pass  *analysis.Pass
	allow allowed
}

// context checks every go statement spawned directly from body (params
// are the spawner's parameters, for the done-channel rule), then
// recurses into nested function literals as their own spawning
// contexts.
func (g *glCheck) context(body *ast.BlockStmt, params map[types.Object]bool) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			g.context(x.Body, paramObjs(g.pass, nil, x.Type.Params))
			return false
		case *ast.GoStmt:
			g.goStmt(x, body, params)
			// The spawned function was handled by goStmt; its body is
			// still a spawning context for nested go statements.
			if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				g.context(lit.Body, paramObjs(g.pass, nil, lit.Type.Params))
			}
			for _, a := range x.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
}

func (g *glCheck) goStmt(gs *ast.GoStmt, spawnerBody *ast.BlockStmt, spawnerParams map[types.Object]bool) {
	if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		g.litSpawn(gs, lit, spawnerBody, spawnerParams)
		return
	}
	g.namedSpawn(gs, spawnerBody)
}

// litSpawn proves (or refutes) bounded lifetime for `go func(){...}()`.
func (g *glCheck) litSpawn(gs *ast.GoStmt, lit *ast.FuncLit, spawnerBody *ast.BlockStmt, spawnerParams map[types.Object]bool) {
	litParams := paramObjs(g.pass, nil, lit.Type.Params)

	// WaitGroup join: Done inside the goroutine names the WaitGroup.
	for _, doneRoot := range g.waitGroupMethodRoots(lit.Body, "Done") {
		wg := g.mapLitParam(doneRoot, lit, gs.Call)
		if wg == nil {
			continue
		}
		if adds := g.waitGroupMethodRoots(lit.Body, "Add"); containsObj(adds, doneRoot) {
			g.report(gs.Pos(), "wg.Add inside the spawned goroutine: Add must dominate the go statement or Wait can return early")
			return
		}
		addBefore := false
		for _, pos := range g.methodCallPositions(spawnerBody, wg, "Add") {
			if pos < gs.Pos() {
				addBefore = true
			}
		}
		if !addBefore {
			g.report(gs.Pos(), "%s.Add must precede the go statement it counts", wg.Name())
			return
		}
		if len(g.methodCallPositions(spawnerBody, wg, "Wait")) == 0 {
			g.report(gs.Pos(), "%s.Wait is not reachable in the spawning function: the goroutine is never joined", wg.Name())
			return
		}
		return // joined
	}

	// Channel join: the goroutine sends on or closes a channel the
	// spawner receives from.
	for _, ch := range g.channelsWrittenBy(lit.Body) {
		actual := g.mapLitParam(ch, lit, gs.Call)
		if actual != nil && g.receivesFrom(spawnerBody, actual) {
			return
		}
	}

	// Cancelable: the goroutine watches a context or a done-channel
	// parameter.
	if g.watchesContext(lit.Body) {
		return
	}
	for _, ch := range g.channelsReadBy(lit.Body) {
		mapped := g.mapLitParam(ch, lit, gs.Call)
		if mapped == nil {
			continue
		}
		if litParams[ch] || spawnerParams[mapped] {
			return
		}
	}

	g.report(gs.Pos(), "goroutine has no provable bounded lifetime: join it (WaitGroup or result channel) or make it cancelable (context or done-channel parameter); //lint:allow golifetime -- <why> for a true daemon")
}

// namedSpawn proves bounded lifetime for `go f(args...)` from the
// arguments handed to the callee.
func (g *glCheck) namedSpawn(gs *ast.GoStmt, spawnerBody *ast.BlockStmt) {
	for _, arg := range gs.Call.Args {
		root := chainRootObject(g.pass.TypesInfo, arg)
		if root == nil {
			continue
		}
		t := g.pass.TypesInfo.TypeOf(arg)
		switch {
		case isWaitGroupType(t):
			addBefore := false
			for _, pos := range g.methodCallPositions(spawnerBody, root, "Add") {
				if pos < gs.Pos() {
					addBefore = true
				}
			}
			if !addBefore {
				g.report(gs.Pos(), "%s.Add must precede the go statement it counts", root.Name())
				return
			}
			if len(g.methodCallPositions(spawnerBody, root, "Wait")) == 0 {
				g.report(gs.Pos(), "%s.Wait is not reachable in the spawning function: the goroutine is never joined", root.Name())
				return
			}
			return
		case isChanType(t):
			if g.receivesFrom(spawnerBody, root) {
				return
			}
		case isContextType(t):
			return
		}
	}
	g.report(gs.Pos(), "goroutine has no provable bounded lifetime: pass the callee a WaitGroup, a result channel the spawner receives from, or a context; //lint:allow golifetime -- <why> for a true daemon")
}

func (g *glCheck) report(pos token.Pos, format string, args ...interface{}) {
	if g.allow.at(g.pass, pos) {
		return
	}
	g.pass.Reportf(pos, format, args...)
}

// mapLitParam maps an object used inside the spawned literal to the
// spawner's view: a literal parameter resolves to the root of the
// corresponding call argument; anything else (a captured variable) is
// already the spawner's object.
func (g *glCheck) mapLitParam(obj types.Object, lit *ast.FuncLit, call *ast.CallExpr) types.Object {
	i := 0
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if g.pass.TypesInfo.Defs[name] == obj {
				if i < len(call.Args) {
					return chainRootObject(g.pass.TypesInfo, call.Args[i])
				}
				return nil
			}
			i++
		}
	}
	return obj
}

// waitGroupMethodRoots lists the root objects of method calls named
// method on sync.WaitGroup values within node (nested literals
// included — a defer wg.Done() wrapper still counts).
func (g *glCheck) waitGroupMethodRoots(node ast.Node, method string) []types.Object {
	var roots []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		if !isWaitGroupType(g.pass.TypesInfo.TypeOf(sel.X)) {
			return true
		}
		if root := chainRootObject(g.pass.TypesInfo, sel.X); root != nil {
			roots = append(roots, root)
		}
		return true
	})
	return roots
}

// methodCallPositions lists positions of obj.method() calls in the
// spawner's own flow: every nested function literal (the spawned one
// included) is excluded, so an Add tucked inside a callback does not
// pass for one that dominates the spawn.
func (g *glCheck) methodCallPositions(body *ast.BlockStmt, obj types.Object, method string) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		if chainRootObject(g.pass.TypesInfo, sel.X) == obj {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}

// channelsWrittenBy lists root objects of channels the body sends on
// or closes.
func (g *glCheck) channelsWrittenBy(body *ast.BlockStmt) []types.Object {
	var out []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if root := chainRootObject(g.pass.TypesInfo, x.Chan); root != nil {
				out = append(out, root)
			}
		case *ast.CallExpr:
			if isBuiltin(g.pass.TypesInfo, x, "close") && len(x.Args) == 1 {
				if root := chainRootObject(g.pass.TypesInfo, x.Args[0]); root != nil {
					out = append(out, root)
				}
			}
		}
		return true
	})
	return out
}

// channelsReadBy lists root objects of channels the body receives from
// (unary receive, wherever it appears: statement, select case, range).
func (g *glCheck) channelsReadBy(body *ast.BlockStmt) []types.Object {
	var out []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if root := chainRootObject(g.pass.TypesInfo, x.X); root != nil {
					out = append(out, root)
				}
			}
		case *ast.RangeStmt:
			if isChanType(g.pass.TypesInfo.TypeOf(x.X)) {
				if root := chainRootObject(g.pass.TypesInfo, x.X); root != nil {
					out = append(out, root)
				}
			}
		}
		return true
	})
	return out
}

// receivesFrom reports whether the spawner's flow (nested literals
// excluded) receives from ch or ranges over it.
func (g *glCheck) receivesFrom(body *ast.BlockStmt, ch types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && chainRootObject(g.pass.TypesInfo, x.X) == ch {
				found = true
			}
		case *ast.RangeStmt:
			if isChanType(g.pass.TypesInfo.TypeOf(x.X)) && chainRootObject(g.pass.TypesInfo, x.X) == ch {
				found = true
			}
		}
		return true
	})
	return found
}

// watchesContext reports whether the body consults a context.Context's
// cancellation surface (Done or Err).
func (g *glCheck) watchesContext(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
			return true
		}
		if isContextType(g.pass.TypesInfo.TypeOf(sel.X)) {
			found = true
		}
		return true
	})
	return found
}

func paramObjs(pass *analysis.Pass, recv *ast.FieldList, params *ast.FieldList) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, fl := range []*ast.FieldList{recv, params} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

func containsObj(objs []types.Object, obj types.Object) bool {
	for _, o := range objs {
		if o == obj {
			return true
		}
	}
	return false
}

func isWaitGroupType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		pathHasSuffix(named.Obj().Pkg().Path(), "sync") && named.Obj().Name() == "WaitGroup"
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isContextType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		pathHasSuffix(named.Obj().Pkg().Path(), "context") && named.Obj().Name() == "Context"
}
