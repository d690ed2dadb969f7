// Package hotpath flags allocation-prone constructs in functions
// reachable from the scheduling hot path. The repo's steady-state
// contract is zero allocations per controller cycle
// (TestCycleSteadyStateAllocs); the allocs tests catch regressions
// after the fact, this analyzer points at the offending expression.
//
// Entry points are seeded with //simvet:hotpath on the function
// declaration (Policy.Schedule implementations, the controller cycle).
// Reachability follows static calls within the package; //simvet:
// coldpath on a callee stops traversal into it (error paths, logging
// slow paths). Within reachable code the analyzer flags:
//
//   - fmt.Sprintf / Sprint / Sprintln / Errorf (always allocate)
//   - map and slice composite literals, and make of map/slice —
//     except lazy-init makes under a `x == nil` / `cap(x) < n` guard,
//     which grow scratch state once and then stay warm
//   - closures that capture variables (the closure and its captures
//     escape together)
//   - string concatenation (+ / += on strings)
//   - interface boxing: passing a concrete non-pointer value to an
//     interface parameter (including variadic ...interface{}; a type
//     parameter is not one)
//
// Arguments to panic are exempt: panics are terminal, never
// steady-state. //simvet:alloc on a statement or function silences a
// finding that is intentional (amortised growth, cold sub-paths the
// call graph cannot see).
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hot-path allocation check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flag alloc-prone constructs in functions reachable from //simvet:hotpath entry points " +
		"(escapes: //simvet:alloc, //simvet:coldpath)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	files := map[*ast.FuncDecl]*ast.File{}
	var seeds []*ast.FuncDecl
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			files[fd] = file
			if pass.Annotated(file, []ast.Node{fd}, "hotpath") {
				seeds = append(seeds, fd)
			}
		}
	}
	if len(seeds) == 0 {
		return nil
	}

	reachable := reach(pass, seeds, decls, files)
	for fd := range reachable {
		checkFunc(pass, files[fd], fd)
	}
	return nil
}

// reach computes the set of declared functions reachable from seeds
// via static calls within the package, stopping at //simvet:coldpath.
func reach(pass *analysis.Pass, seeds []*ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl, files map[*ast.FuncDecl]*ast.File) map[*ast.FuncDecl]bool {
	seen := map[*ast.FuncDecl]bool{}
	work := append([]*ast.FuncDecl(nil), seeds...)
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fd] {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.Callee(call)
			if fn == nil {
				return true
			}
			callee, ok := decls[fn]
			if !ok || seen[callee] {
				return true
			}
			if pass.Annotated(files[callee], []ast.Node{callee}, "coldpath") {
				return true
			}
			work = append(work, callee)
			return true
		})
	}
	return seen
}

// checkFunc walks one reachable function body for alloc-prone
// constructs.
func checkFunc(pass *analysis.Pass, file *ast.File, fd *ast.FuncDecl) {
	analysis.WalkStack(fd, func(n ast.Node, stack []ast.Node) bool {
		if underPanic(pass, stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, file, n, stack)
		case *ast.CompositeLit:
			checkComposite(pass, file, n, stack)
		case *ast.FuncLit:
			checkClosure(pass, file, n, stack)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypeOf(n)) && !pass.Annotated(file, stack, "alloc") {
				pass.Reportf(n.OpPos, "string concatenation allocates on the hot path (//simvet:alloc to allow)")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypeOf(n.Lhs[0])) && !pass.Annotated(file, stack, "alloc") {
				pass.Reportf(n.TokPos, "string concatenation allocates on the hot path (//simvet:alloc to allow)")
			}
		}
		return true
	})
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// underPanic reports whether the innermost enclosing call in stack is
// a panic — panic argument construction is terminal, not steady-state.
func underPanic(pass *analysis.Pass, stack []ast.Node) bool {
	for _, n := range stack {
		if call, ok := n.(*ast.CallExpr); ok && pass.IsBuiltinCall(call, "panic") {
			return true
		}
	}
	return false
}

// checkCall flags fmt formatting calls and interface boxing at call
// boundaries.
func checkCall(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, stack []ast.Node) {
	fn := pass.Callee(call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Sprintf", "Sprint", "Sprintln", "Errorf":
			if !pass.Annotated(file, stack, "alloc") {
				pass.Reportf(call.Pos(), "fmt.%s allocates on the hot path (//simvet:alloc to allow, or move behind a cold-path guard)", fn.Name())
			}
			return // boxing into its ...interface{} is subsumed
		}
	}
	checkBoxing(pass, file, call, fn, stack)

	if pass.IsBuiltinCall(call, "make") && len(call.Args) > 0 {
		t := pass.TypeOf(call.Args[0])
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map, *types.Slice:
			if lazyInit(pass, stack) || pass.Annotated(file, stack, "alloc") {
				return
			}
			pass.Reportf(call.Pos(), "make on the hot path allocates every cycle — reuse a scratch buffer, or //simvet:alloc with a reason")
		}
	}
}

// checkBoxing flags concrete non-pointer values passed to interface
// parameters — each such argument is boxed, allocating for any value
// the compiler cannot prove tiny.
func checkBoxing(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, fn *types.Func, stack []ast.Node) {
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, generic := pt.(*types.TypeParam); generic {
			continue // instantiated with the argument's own type: no box
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || isBoxFree(at) {
			continue
		}
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		if pass.Annotated(file, stack, "alloc") {
			continue
		}
		pass.Reportf(arg.Pos(), "passing %s to interface parameter boxes the value on the hot path (//simvet:alloc to allow)", at)
	}
}

// isBoxFree reports whether converting t to an interface never
// allocates: pointers, channels, maps, funcs and unsafe pointers are
// stored directly in the interface word; untyped nil has no value.
func isBoxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer
	}
	return false
}

// checkComposite flags map/slice literals (each evaluation allocates).
func checkComposite(pass *analysis.Pass, file *ast.File, lit *ast.CompositeLit, stack []ast.Node) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice:
		if pass.Annotated(file, stack, "alloc") {
			return
		}
		pass.Reportf(lit.Pos(), "map/slice literal allocates on the hot path — hoist to a scratch buffer or package state (//simvet:alloc to allow)")
	}
}

// checkClosure flags function literals that capture variables; a
// capturing closure and its captured variables escape together on
// every evaluation.
func checkClosure(pass *analysis.Pass, file *ast.File, lit *ast.FuncLit, stack []ast.Node) {
	if !captures(pass, lit) {
		return
	}
	if pass.Annotated(file, stack, "alloc") {
		return
	}
	pass.Reportf(lit.Pos(), "capturing closure allocates on the hot path (//simvet:alloc to allow)")
}

// captures reports whether lit references any variable declared
// outside its own body but inside a surrounding function.
func captures(pass *analysis.Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Package-level variables are shared state, not captures.
		if obj.Parent() == pass.Pkg.Scope() || obj.Parent() == types.Universe {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			found = true
		}
		return true
	})
	return found
}

// lazyInit reports whether the make sits under a guard of the shape
// `if x == nil` or `if cap(x) < n` / `if len(x) < n` — the scratch
// grow-once idiom, which allocates only until buffers warm up.
func lazyInit(pass *analysis.Pass, stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if isLazyGuard(pass, ifs.Cond) {
			return true
		}
	}
	return false
}

func isLazyGuard(pass *analysis.Pass, cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "==":
			return isNil(pass, c.X) || isNil(pass, c.Y)
		case "<", "<=":
			if call, ok := ast.Unparen(c.X).(*ast.CallExpr); ok {
				return pass.IsBuiltinCall(call, "cap") || pass.IsBuiltinCall(call, "len")
			}
		case "||", "&&":
			return isLazyGuard(pass, c.X) || isLazyGuard(pass, c.Y)
		}
	}
	return false
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
