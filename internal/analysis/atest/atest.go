// Package atest is an analysistest-style harness for simvet
// analyzers. A test points it at import paths under the analyzer's
// testdata/src directory; atest parses and type-checks those packages
// (resolving sibling testdata stubs from the same tree and the
// standard library from source), runs the analyzer, and matches each
// diagnostic against `// want "regexp"` comments on the offending
// lines — unexpected diagnostics and unmet expectations both fail the
// test.
//
//simvet:testonly the analyzers' own tests import it; no binary does
package atest

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
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Run checks the analyzer against each package at
// testdata/src/<importPath> (testdata resolved relative to the test's
// working directory, i.e. the analyzer's own package directory).
func Run(t *testing.T, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := &testdataImporter{
		fset:    fset,
		srcRoot: filepath.Join(testdata, "src"),
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*pkg{},
	}
	for _, path := range importPaths {
		p, err := imp.load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkExpectations(t, a, fset, p)
	}
}

// pkg is one loaded testdata package.
type pkg struct {
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

// testdataImporter type-checks packages from testdata/src, falling
// back to the source-based standard library importer.
type testdataImporter struct {
	fset    *token.FileSet
	srcRoot string
	std     types.Importer
	cache   map[string]*pkg
}

func (ti *testdataImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(ti.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		p, err := ti.load(path)
		if err != nil {
			return nil, err
		}
		return p.tpkg, nil
	}
	return ti.std.Import(path)
}

func (ti *testdataImporter) load(path string) (*pkg, error) {
	if p, ok := ti.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ti.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ti.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: ti}
	tpkg, err := conf.Check(path, ti.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking: %v", err)
	}
	p := &pkg{files: files, tpkg: tpkg, info: info}
	ti.cache[path] = p
	return p, nil
}

// expectation is one `// want "re"` entry.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// checkExpectations runs a over p and diffs diagnostics against the
// // want comments.
func checkExpectations(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, p *pkg) {
	t.Helper()
	var wants []*expectation
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, re := range parseWants(t, pos, c.Text) {
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Fset:      fset,
		Files:     p.files,
		Pkg:       p.tpkg,
		TypesInfo: p.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re)
		}
	}
}

// parseWants extracts the regexps of one comment's `// want` clause.
// The clause is a space-separated list of Go string literals (quoted
// or backquoted), as in analysistest:
//
//	x := fmt.Sprintf("%d", n) // want `Sprintf` "allocates"
func parseWants(t *testing.T, pos token.Position, text string) []*regexp.Regexp {
	t.Helper()
	idx := strings.Index(text, "// want ")
	if idx < 0 {
		return nil
	}
	rest := strings.TrimSpace(text[idx+len("// want "):])
	var out []*regexp.Regexp
	for rest != "" {
		var lit string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want literal: %s", pos, rest)
			}
			lit = rest[1 : 1+end]
			rest = rest[end+2:]
		case '"':
			var err error
			end := 1
			for end < len(rest) && (rest[end] != '"' || rest[end-1] == '\\') {
				end++
			}
			if end == len(rest) {
				t.Fatalf("%s: unterminated want literal: %s", pos, rest)
			}
			lit, err = strconv.Unquote(rest[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want literal %s: %v", pos, rest[:end+1], err)
			}
			rest = rest[end+1:]
		default:
			t.Fatalf("%s: want clause must be quoted or backquoted literals: %s", pos, rest)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
		}
		out = append(out, re)
		rest = strings.TrimSpace(rest)
	}
	return out
}
