// Package analysistest runs an analyzer over fixture packages under a
// testdata tree and checks its diagnostics against expectations written
// in the fixture source, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest convention:
//
//	i = p // want `possibly-nil \*impl stored in interface iface`
//
// A `// want "re1" "re2"` comment expects exactly those diagnostics
// (each matching the regexp) on its line; lines without a want comment
// expect none. Fixtures live under testdata/src/<importpath>/ and may
// import sibling fixture packages (resolved within the tree) or the
// standard library (type-checked from GOROOT source, so tests need no
// network and no pre-built export data).
//
// //lint:allow suppression is applied exactly as the dwarfvet driver
// applies it, so fixtures can pin the allow-comment contract too.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"opendwarfs/internal/lint/analysis"
)

// Run applies the analyzer to each fixture package (an import path
// under testdata/src) and reports expectation mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	ld := &loader{
		fset:     token.NewFileSet(),
		srcroot:  filepath.Join(testdata, "src"),
		packages: make(map[string]*fixturePkg),
	}
	ld.stdlib = importer.ForCompiler(ld.fset, "source", nil)

	for _, path := range pkgs {
		fp, err := ld.load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}

		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      ld.fset,
			Files:     fp.files,
			Pkg:       fp.pkg,
			TypesInfo: fp.info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			t.Errorf("%s: analyzer failed: %v", path, err)
			continue
		}
		diags = analysis.Suppress(ld.fset, fp.files, a.Name, diags)
		check(t, ld.fset, fp.files, diags)
	}
}

// fixturePkg is one loaded fixture package.
type fixturePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	fset     *token.FileSet
	srcroot  string
	stdlib   types.Importer
	packages map[string]*fixturePkg
	loading  []string // cycle detection
}

// Import resolves fixture-tree imports first, then the standard library.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.srcroot, path); isDir(dir) {
		fp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	return ld.stdlib.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if fp, ok := ld.packages[path]; ok {
		return fp, nil
	}
	for _, p := range ld.loading {
		if p == path {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
	}
	ld.loading = append(ld.loading, path)
	defer func() { ld.loading = ld.loading[:len(ld.loading)-1] }()

	dir := filepath.Join(ld.srcroot, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{Importer: ld}
	pkg, err := tc.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	fp := &fixturePkg{files: files, pkg: pkg, info: info}
	ld.packages[path] = fp
	return fp, nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// wantRe extracts the quoted regexps of a want comment; both "..." and
// `...` forms are accepted.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// check compares diagnostics against // want comments, both keyed by
// file:line.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				posn := fset.Position(c.Slash)
				k := key{posn.Filename, posn.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
					// Both quote forms hold a regexp; the double-quoted
					// form additionally interprets string escapes.
					pat := m[2]
					if m[1] != "" {
						unq, err := strconv.Unquote(`"` + m[1] + `"`)
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", posn, m[1], err)
							continue
						}
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", posn, pat, err)
						continue
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	got := make(map[key][]string)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		got[key{posn.Filename, posn.Line}] = append(got[key{posn.Filename, posn.Line}], d.Message)
	}

	for k, msgs := range got {
		res := wants[k]
		for _, msg := range msgs {
			matched := -1
			for i, re := range res {
				if re != nil && re.MatchString(msg) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
				continue
			}
			res[matched] = nil // each expectation matches one diagnostic
		}
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
		delete(wants, k)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}
