// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis driver surface: an Analyzer is a
// named check over one type-checked package, a Pass hands it the
// syntax, types and a Report sink, and drivers (cmd/simvet, the atest
// harness) own loading and diagnostics rendering.
//
// The repository's build is deliberately std-lib only (ROADMAP:
// "stub or gate missing deps"), so the real x/tools module cannot be a
// dependency. The subset here keeps the same field names and call
// shape as x/tools' analysis.Analyzer/analysis.Pass, which makes a
// later migration to the upstream framework a mechanical change: the
// four simvet analyzers would compile against x/tools after swapping
// the import path and the annotation helpers.
//
// On top of the x/tools subset, the package adds the //simvet:*
// annotation index that all simvet analyzers share — see fileAnnots
// and (*Pass).Annotated for the grammar and the attachment rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer describes one static check. Run inspects a single package
// and reports findings through the Pass; it must be stateless across
// packages (drivers run analyzers over many packages in one process).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the simvet
	// command line. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run executes the check. Diagnostics go through pass.Report; the
	// returned error aborts the whole run (driver bugs, not findings).
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report receives each finding (set by the driver).
	Report func(Diagnostic)

	annots map[*ast.File]*fileAnnots
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// fileAnnots indexes the names of one file's //simvet:<name> [reason]
// comments by line, plus the set of lines occupied by comments (for
// the contiguous-group rule).
type fileAnnots struct {
	byLine       map[int][]string
	commentLines map[int]bool
}

const annotPrefix = "//simvet:"

// parseAnnots builds the annotation index of one file.
func parseAnnots(fset *token.FileSet, f *ast.File) *fileAnnots {
	fa := &fileAnnots{byLine: map[int][]string{}, commentLines: map[int]bool{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			start := fset.Position(c.Pos()).Line
			end := fset.Position(c.End()).Line
			for l := start; l <= end; l++ {
				fa.commentLines[l] = true
			}
			text := c.Text
			if !strings.HasPrefix(text, annotPrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, annotPrefix)
			name, _, _ := strings.Cut(rest, " ")
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			fa.byLine[start] = append(fa.byLine[start], name)
		}
	}
	return fa
}

func (p *Pass) fileAnnotsOf(file *ast.File) *fileAnnots {
	if p.annots == nil {
		p.annots = map[*ast.File]*fileAnnots{}
	}
	fa := p.annots[file]
	if fa == nil {
		fa = parseAnnots(p.Fset, file)
		p.annots[file] = fa
	}
	return fa
}

// nodeAnnotated reports whether node n carries the named annotation:
// either a trailing comment on n's first line, or a comment in the
// contiguous comment block immediately above it (a doc comment).
func (fa *fileAnnots) nodeAnnotated(fset *token.FileSet, n ast.Node, name string) bool {
	line := fset.Position(n.Pos()).Line
	if slices.Contains(fa.byLine[line], name) {
		return true
	}
	for l := line - 1; fa.commentLines[l]; l-- {
		if slices.Contains(fa.byLine[l], name) {
			return true
		}
	}
	return false
}

// Annotated reports whether the //simvet:<name> annotation is attached
// to n or to any enclosing node in stack (outermost first, n last).
// An annotation is attached to a node when it appears as a trailing
// comment on the node's first line or anywhere in the contiguous
// comment block directly above it — the natural places for a doc
// comment or an inline escape. Annotating an enclosing statement (say,
// an if block) therefore silences every finding inside it; annotating
// a function declaration silences the whole function.
func (p *Pass) Annotated(file *ast.File, stack []ast.Node, name string) bool {
	fa := p.fileAnnotsOf(file)
	for _, n := range stack {
		switch n.(type) {
		case ast.Stmt, ast.Decl, *ast.File, *ast.Field:
			if fa.nodeAnnotated(p.Fset, n, name) {
				return true
			}
		}
	}
	return false
}

// InTestFile reports whether pos lies in a _test.go file. The simvet
// contracts bind production code; tests exercise probes and policies
// directly and are exempt (the drivers filter test files up front, so
// this is a second line of defense for embedding drivers that do not).
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// WalkStack walks root in source order, calling fn for each node with
// the stack of its ancestors (outermost first; the node itself is
// stack[len(stack)-1]). Returning false prunes the walk below n. The
// stack slice is reused between calls — copy it to retain.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		stack = append(stack, n)
		if fn(n, stack) {
			for _, child := range childrenOf(n) {
				walk(child)
			}
		}
		stack = stack[:len(stack)-1]
	}
	walk(root)
}

// childrenOf lists the direct child nodes of n in source order.
func childrenOf(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true // n itself; descend one level
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.TypesInfo.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Callee resolves the called function/method object of a call
// expression, or nil (builtins, function values, type conversions).
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsBuiltinCall reports whether call invokes the named builtin.
func (p *Pass) IsBuiltinCall(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := p.TypesInfo.Uses[id].(*types.Builtin)
	return builtin
}
