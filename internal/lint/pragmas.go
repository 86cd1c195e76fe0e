package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Pragma is one //lint:allow suppression found in the source tree.
type Pragma struct {
	File   string // path relative to the scanned root
	Line   int
	Check  string // the named check, e.g. "frozenshare"
	Reason string // text after "--", "" when missing
	Known  bool   // whether Check names a check in the suite
}

func (p Pragma) String() string {
	reason := p.Reason
	if reason == "" {
		reason = "<missing reason>"
	}
	return fmt.Sprintf("%s:%d: %s -- %s", p.File, p.Line, p.Check, reason)
}

// checkNames are the pragma names the suite honors. detrandonly's
// pragma is "seqrand" and sortedemit's is "maporder" for historical
// reasons; the rest match their analyzer names.
var checkNames = map[string]bool{
	"seqrand":      true,
	"saltband":     true,
	"maporder":     true,
	"wallclock":    true,
	"frozenshare":  true,
	"shardcapture": true,
	"hotalloc":     true,
	"retain":       true,
	"golifetime":   true,
}

// ListPragmas walks the tree under root and returns every //lint:allow
// pragma in non-test Go source, sorted by file and line — the
// suppression audit surface behind `doorsvet -pragmas`. Fixture trees
// (testdata), vendor and hidden directories are skipped.
func ListPragmas(root string) ([]Pragma, error) {
	var pragmas []Pragma
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil // broken files are the compiler's complaint, not ours
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := pragmaRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pragmas = append(pragmas, Pragma{
					File:   filepath.ToSlash(rel),
					Line:   fset.Position(c.Pos()).Line,
					Check:  m[1],
					Reason: strings.TrimSpace(m[2]),
					Known:  checkNames[m[1]],
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pragmas, func(i, j int) bool {
		if pragmas[i].File != pragmas[j].File {
			return pragmas[i].File < pragmas[j].File
		}
		return pragmas[i].Line < pragmas[j].Line
	})
	return pragmas, nil
}
