// Package lint is the doorsvet analyzer suite: nine checks that turn
// the repository's determinism, performance and concurrency discipline
// — the conventions that make the sharded survey engine merge into a
// bit-identical analysis.Report at any shard count, keep its hot paths
// allocation-free, and keep its shard goroutines from sharing mutable
// state — from reviewer lore into compiler-checked rules.
//
//   - detrandonly: randomness must be derived from causal identity via
//     internal/detrand, never drawn from raw math/rand streams.
//   - saltbands: detrand domain-separation salts must come from
//     registered, non-overlapping per-package const bands.
//   - sortedemit: merge/emit paths must not iterate maps without
//     sorting what they collect.
//   - wallclock: event-driven packages must take time from the event
//     queue, not the wall clock.
//   - frozenshare: //doors:frozen types are never mutated outside a
//     construction context, in any package (interprocedural, via
//     analyzer facts).
//   - shardcapture: shard goroutine closures capture only shard-local
//     or frozen state (consumes frozenshare's facts).
//   - hotalloc: //doors:hotpath functions are transitively
//     allocation-free, proven over the call graph via AllocFact
//     object facts with full call-chain witnesses.
//   - retain: //doors:scratch parameters are never retained past the
//     call — not stored, sent, appended away, captured, or passed to
//     a retaining callee (interprocedural, via RetainsFact facts).
//   - golifetime: every go statement is joined (WaitGroup, result
//     channel) or cancelable (context, done channel) — no leaked
//     goroutines.
//
// Every check honors a line-scoped escape hatch:
//
//	//lint:allow <check> -- <reason>
//
// placed on (or immediately above) the offending line. The reason is
// mandatory; an allow pragma without one is itself a finding. Files
// ending in _test.go are exempt from all checks.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"sync"

	"repro/internal/lint/analysis"
)

// Suite returns the full doorsvet analyzer suite. Order matters: the
// loader runs analyzers in slice order over each package, and
// shardcapture consumes the FrozenType facts frozenshare exports, so
// FrozenShare must precede ShardCapture. HotAlloc, Retain and
// GoLifetime only consume their own facts, so their positions are
// free; they run last as the newest checks.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetrandOnly,
		SaltBands,
		SortedEmit,
		WallClock,
		FrozenShare,
		ShardCapture,
		HotAlloc,
		Retain,
		GoLifetime,
	}
}

var pragmaRE = regexp.MustCompile(`^//lint:allow\s+([a-z]+)\s*(?:--\s*(.*))?$`)

// allowed records which source lines carry a //lint:allow pragma for
// one check, within one file. Each covered line maps back to the line
// the pragma itself sits on, so usage recording (the stale-pragma
// audit) can credit the right suppression.
type allowed struct {
	file  string
	lines map[int]int // covered line -> pragma line
}

// allowsFor scans f's comments for pragmas naming check. A pragma
// covers its own line and the next one, so it works both trailing the
// offending statement and on a line of its own above it. Pragmas
// without a reason string are reported immediately.
func allowsFor(pass *analysis.Pass, f *ast.File, check string) allowed {
	lines := make(map[int]int)
	file := ""
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := pragmaRE.FindStringSubmatch(c.Text)
			if m == nil || m[1] != check {
				continue
			}
			if strings.TrimSpace(m[2]) == "" {
				pass.Reportf(c.Pos(), "lint:allow %s pragma requires a reason: //lint:allow %s -- <why>", check, check)
				continue
			}
			p := pass.Fset.Position(c.Pos())
			file = p.Filename
			lines[p.Line] = p.Line
			lines[p.Line+1] = p.Line
		}
	}
	return allowed{file: file, lines: lines}
}

func (a allowed) at(pass *analysis.Pass, pos token.Pos) bool {
	pragmaLine, ok := a.lines[pass.Fset.Position(pos).Line]
	if !ok {
		return false
	}
	markPragmaUsed(a.file, pragmaLine)
	return true
}

// pragmaRecorder is the opt-in recorder behind the stale-pragma audit:
// when enabled, every pragma that actually suppresses a finding is
// noted here, and `doorsvet -pragmas` flags the rest as stale. It is
// process-global state that analyzers write from their passes. The
// loader runs passes from one goroutine; mu keeps the recorder safe
// for any caller that does not.
type pragmaRecorder struct {
	mu sync.Mutex
	// used maps file path (as seen by the loader) -> pragma lines hit.
	used map[string]map[int]bool
}

var pragmaUsage pragmaRecorder

// RecordPragmaUsage enables pragma-usage recording for subsequent
// analyzer runs in this process.
func RecordPragmaUsage() {
	pragmaUsage.mu.Lock()
	pragmaUsage.used = make(map[string]map[int]bool)
	pragmaUsage.mu.Unlock()
}

func markPragmaUsed(file string, line int) {
	pragmaUsage.mu.Lock()
	defer pragmaUsage.mu.Unlock()
	if pragmaUsage.used == nil || file == "" {
		return
	}
	m := pragmaUsage.used[file]
	if m == nil {
		m = make(map[int]bool)
		pragmaUsage.used[file] = m
	}
	m[line] = true
}

// PragmaUsed reports whether a recorded run saw the pragma at
// file:line suppress at least one finding. file is compared as an
// absolute path.
func PragmaUsed(file string, line int) bool {
	pragmaUsage.mu.Lock()
	defer pragmaUsage.mu.Unlock()
	for recorded, lines := range pragmaUsage.used {
		if !lines[line] {
			continue
		}
		abs, err := filepath.Abs(recorded)
		if err != nil {
			abs = recorded
		}
		if abs == file {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}

// pkgNameOf resolves expr to the *types.PkgName it names, or nil.
func pkgNameOf(pass *analysis.Pass, expr ast.Expr) *types.PkgName {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := pass.TypesInfo.Uses[id].(*types.PkgName)
	return pn
}

// importsPathSuffix reports whether expr names an imported package
// whose path is path or ends in "/"+path (so fixture stubs like
// "repro/internal/detrand" match the real package).
func importsPathSuffix(pass *analysis.Pass, expr ast.Expr, path string) bool {
	pn := pkgNameOf(pass, expr)
	if pn == nil {
		return false
	}
	got := pn.Imported().Path()
	return got == path || strings.HasSuffix(got, "/"+path)
}

// pathHasSuffix reports whether pkg path is suffix or ends in
// "/"+suffix.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
