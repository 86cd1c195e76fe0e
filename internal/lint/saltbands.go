package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
)

// SaltBands enforces the domain-separation salt registry. Packages
// that key detrand draws declare their salts in a const block of the
// form
//
//	const (
//		saltFoo = 41 + iota
//		saltBar
//	)
//
// which claims the band [41, 41+len(block)). The analyzer parses every
// such block in the module (so sibling packages that never import each
// other still share one registry), reports bands that overlap, and
// checks that every salt passed to detrand.Mix/Float64/Intn/Rand is a
// constant from a registered band rather than a bare magic number.
var SaltBands = &analysis.Analyzer{
	Name: "saltbands",
	Doc:  "check detrand domain-separation salts against the global band registry",
	Run:  runSaltBands,
}

// saltBand is one registered `salt* = N + iota` const block.
type saltBand struct {
	start int64
	count int64
	name  string // first constant, names the band in messages
	pkg   string // declaring package (directory path)
	file  string
	line  int
}

func (b saltBand) end() int64 { return b.start + b.count }

func (b saltBand) String() string {
	return fmt.Sprintf("%s [%d,%d)", b.name, b.start, b.end())
}

func runSaltBands(pass *analysis.Pass) (interface{}, error) {
	root := registryRoot(pass.Dir)
	bands, err := scanBands(root)
	if err != nil {
		return nil, err
	}

	// Re-detect this package's own blocks on the pass AST so overlap
	// diagnostics carry real positions.
	type localBand struct {
		band saltBand
		pos  token.Pos
	}
	var locals []localBand
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			if b, ok := parseSaltBlock(gd); ok {
				pos := pass.Fset.Position(gd.Pos())
				b.file = pos.Filename
				b.line = pos.Line
				b.pkg = pass.Pkg.Path()
				locals = append(locals, localBand{band: b, pos: gd.Pos()})
			}
		}
	}

	// Overlaps are reported by every participating package, at the
	// local declaration.
	for _, lb := range locals {
		for _, other := range bands {
			if other.file == lb.band.file && other.line == lb.band.line {
				continue
			}
			if lb.band.start < other.end() && other.start < lb.band.end() {
				pass.Reportf(lb.pos,
					"salt band %s overlaps band %s declared at %s:%d; pick a disjoint base for the `%s = N + iota` block",
					lb.band, other, other.file, other.line, lb.band.name)
			}
		}
	}

	// Salt arguments at detrand call sites.
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		allow := allowsFor(pass, f, "saltband")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !importsPathSuffix(pass, sel.X, "internal/detrand") {
				return true
			}
			fn := sel.Sel.Name
			switch fn {
			case "Mix", "Float64", "Intn", "Rand", "HashBytes":
			default:
				return true
			}
			if allow.at(pass, call.Pos()) {
				return true
			}
			for i, arg := range call.Args {
				if fn == "Intn" && i == 0 {
					continue // the modulus, not a key
				}
				if c, ok := constObj(pass, arg); ok && strings.HasPrefix(c.Name(), "salt") {
					v, exact := constant.Int64Val(constant.ToInt(c.Val()))
					if !exact {
						continue
					}
					if !inAnyBand(bands, v) {
						pass.Reportf(arg.Pos(),
							"salt constant %s = %d is outside every registered salt band; declare it in a `salt* = N + iota` const block",
							c.Name(), v)
					}
				} else if i == len(call.Args)-1 && i > 0 && isIntLiteral(arg) {
					pass.Reportf(arg.Pos(),
						"bare numeric salt passed to detrand.%s; use a constant from the package's registered salt band", fn)
				}
			}
			return true
		})
	}
	return nil, nil
}

// constObj resolves expr to the named constant it uses, if any.
func constObj(pass *analysis.Pass, expr ast.Expr) (*types.Const, bool) {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil, false
	}
	c, ok := pass.TypesInfo.Uses[id].(*types.Const)
	return c, ok
}

func isIntLiteral(expr ast.Expr) bool {
	lit, ok := expr.(*ast.BasicLit)
	return ok && lit.Kind == token.INT
}

func inAnyBand(bands []saltBand, v int64) bool {
	for _, b := range bands {
		if v >= b.start && v < b.end() {
			return true
		}
	}
	return false
}

// registryRoot walks up from dir to the module root (go.mod) or a
// GOPATH-style fixture root (a directory named "src"), which bounds
// the whole-registry source scan.
func registryRoot(dir string) string {
	d := dir
	for d != "" {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Base(d) == "src" {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	return dir
}

// bandCache memoizes per-root scans: the loader runs the analyzer once
// per package over the same tree, from one goroutine, so plain map
// access is fine.
var bandCache = map[string][]saltBand{}

// scanBands parses every non-test Go file under root and collects salt
// const blocks. Fixture trees under testdata/ are skipped when rooted
// at a real module so analyzer test fixtures cannot pollute the
// registry.
func scanBands(root string) ([]saltBand, error) {
	if bands, ok := bandCache[root]; ok {
		return bands, nil
	}
	isModule := false
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
		isModule = true
	}
	var bands []saltBand
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "vendor" || (isModule && name == "testdata")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil // let the compiler complain about broken files
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			if b, ok := parseSaltBlock(gd); ok {
				pos := fset.Position(gd.Pos())
				b.file = pos.Filename
				b.line = pos.Line
				b.pkg = f.Name.Name
				bands = append(bands, b)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(bands, func(i, j int) bool { return bands[i].start < bands[j].start })
	bandCache[root] = bands
	return bands, nil
}

// parseSaltBlock recognizes `salt* = N + iota` const blocks: the first
// spec names a salt and adds an integer base to iota, subsequent specs
// inherit the expression. The block claims [N, N+names).
func parseSaltBlock(gd *ast.GenDecl) (saltBand, bool) {
	var b saltBand
	for i, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Names) == 0 {
			return b, false
		}
		if i == 0 {
			if !strings.HasPrefix(vs.Names[0].Name, "salt") || len(vs.Values) != 1 {
				return b, false
			}
			base, ok := iotaBase(vs.Values[0])
			if !ok {
				return b, false
			}
			b.start = base
			b.name = vs.Names[0].Name
		}
		for _, name := range vs.Names {
			if name.Name != "_" {
				b.count++
			}
		}
	}
	return b, b.count > 0
}

// iotaBase matches `N + iota` or `iota + N`, returning N.
func iotaBase(expr ast.Expr) (int64, bool) {
	bin, ok := expr.(*ast.BinaryExpr)
	if !ok || bin.Op != token.ADD {
		return 0, false
	}
	lit, litOK := bin.X.(*ast.BasicLit)
	id, idOK := bin.Y.(*ast.Ident)
	if !litOK || !idOK {
		lit, litOK = bin.Y.(*ast.BasicLit)
		id, idOK = bin.X.(*ast.Ident)
	}
	if !litOK || !idOK || lit.Kind != token.INT || id.Name != "iota" {
		return 0, false
	}
	v, err := strconv.ParseInt(lit.Value, 0, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
