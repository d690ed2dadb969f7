// Package scratchcontract enforces the ownership rules around the
// scheduler's scratch struct. Policies carry per-instance reusable
// buffers (the `scratch` field) so the hot path allocates nothing in
// steady state; that only holds if exactly one goroutine-free owner
// mutates each scratch. Three rules follow:
//
//  1. every method on a scratch-carrying type uses a pointer
//     receiver — a value receiver copies the buffers and warms the
//     copy instead of the instance;
//  2. scratch-carrying values are never passed, returned, or copied
//     by value — only pointers travel;
//  3. constructors (New, NewFor, and friends) return a fresh
//     instance per call, never a stored one — sharing one instance
//     across partitions aliases the buffers mid-cycle;
//  4. ClonePolicy methods mint cold clones — they never return the
//     receiver and never read the receiver's scratch field, or the
//     forked lineage would share (and race on) the parent's buffers.
//
// Rules 1–4 trigger only in packages that define a struct type named
// scratch. A fifth binds the other kind of reused memory, the free
// list — a struct field marked //simvet:freelist, holding records that
// were scrubbed when their owner was done with them and are handed out
// again (the controller's job records, a segment's process slots):
//
//  5. a fork function (Fork, fork*, ClonePolicy) neither mentions a
//     free-list field nor calls a function of the package that does.
//     The fork starts with an empty list and allocates its records
//     fresh, so nothing recycled is ever reachable from two lineages.
//
// Everywhere else the analyzer is a no-op.
package scratchcontract

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the scratch ownership check.
var Analyzer = &analysis.Analyzer{
	Name: "scratchcontract",
	Doc: "scratch-carrying policy types must use pointer receivers, never be copied by value, " +
		"constructors must return fresh instances, ClonePolicy must not alias receiver scratch, " +
		"and fork functions must not touch //simvet:freelist fields",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkFreeLists(pass)
	scratch := findScratch(pass)
	if scratch == nil {
		return nil
	}
	carrying := carryingTypes(pass, scratch)
	if len(carrying) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		f := file
		analysis.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkReceiver(pass, carrying, n)
				if isConstructorName(n.Name.Name) {
					checkConstructor(pass, carrying, n)
				}
				checkClonePolicy(pass, carrying, scratch, n)
			case *ast.FuncType:
				checkSignature(pass, f, carrying, n)
			case *ast.AssignStmt:
				checkCopies(pass, carrying, n)
			}
			return true
		})
	}
	return nil
}

// findScratch locates the package's struct type named scratch.
func findScratch(pass *analysis.Pass) *types.Named {
	obj := pass.Pkg.Scope().Lookup("scratch")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// carryingTypes returns the named struct types with a field of type
// scratch (directly or embedded by value).
func carryingTypes(pass *analysis.Pass, scratch *types.Named) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named == scratch {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if types.Identical(st.Field(i).Type(), scratch) {
				out[named] = true
				break
			}
		}
	}
	return out
}

// isCarrying reports whether t is (a named alias of) a scratch-
// carrying struct — the value type itself, not a pointer to it.
func isCarrying(carrying map[*types.Named]bool, t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && carrying[named]
}

// checkReceiver enforces pointer receivers on carrying types.
func checkReceiver(pass *analysis.Pass, carrying map[*types.Named]bool, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return
	}
	rt := pass.TypeOf(fd.Recv.List[0].Type)
	if rt == nil {
		return
	}
	if isCarrying(carrying, rt) {
		pass.Reportf(fd.Recv.Pos(),
			"method %s has a value receiver on scratch-carrying type %s: the receiver copy warms its own buffers — use a pointer receiver",
			fd.Name.Name, typeName(rt))
	}
}

// checkSignature flags carrying types passed or returned by value in
// any function signature (declarations and literals alike).
func checkSignature(pass *analysis.Pass, file *ast.File, carrying map[*types.Named]bool, ft *ast.FuncType) {
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.TypeOf(field.Type)
			if t != nil && isCarrying(carrying, t) {
				pass.Reportf(field.Pos(),
					"scratch-carrying type %s %s by value: pass *%s so buffers are not copied",
					typeName(t), what, typeName(t))
			}
		}
	}
	checkFieldList(ft.Params, "passed")
	if ft.Results != nil {
		checkFieldList(ft.Results, "returned")
	}
}

// checkCopies flags value copies of carrying types: dereferencing a
// policy pointer into a local, or assigning one policy value to
// another.
func checkCopies(pass *analysis.Pass, carrying map[*types.Named]bool, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		// Discarding to _ copies nothing.
		if len(as.Lhs) == len(as.Rhs) {
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				continue
			}
		}
		t := pass.TypeOf(rhs)
		if t == nil || !isCarrying(carrying, t) {
			continue
		}
		switch ast.Unparen(rhs).(type) {
		case *ast.CompositeLit:
			// Construction, not a copy. (Constructor rules police how
			// the fresh value is then shared.)
		case *ast.StarExpr, *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
			pass.Reportf(rhs.Pos(),
				"copying scratch-carrying type %s by value: the copy aliases no buffers and warms its own — use a pointer",
				typeName(t))
		}
	}
}

// isConstructorName matches the constructor naming convention the
// contract binds: New, NewFor, NewFCFS, ...
func isConstructorName(name string) bool {
	return name == "New" || strings.HasPrefix(name, "New")
}

// checkConstructor enforces that New* functions returning a carrying
// type (directly, by pointer, or behind an interface) never return a
// stored instance: returning a field, a package-level variable, or a
// parameter shares one scratch across callers.
func checkConstructor(pass *analysis.Pass, carrying map[*types.Named]bool, fd *ast.FuncDecl) {
	if fd.Type.Results == nil || fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			t := pass.TypeOf(res)
			if t == nil {
				continue
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if !isCarrying(carrying, t) {
				continue
			}
			switch e := ast.Unparen(res).(type) {
			case *ast.SelectorExpr:
				pass.Reportf(res.Pos(),
					"constructor %s returns a stored %s: each call must return a fresh instance, or partitions share scratch buffers",
					fd.Name.Name, typeName(t))
			case *ast.Ident:
				obj := pass.TypesInfo.Uses[e]
				if obj == nil {
					continue
				}
				v, ok := obj.(*types.Var)
				if !ok {
					continue
				}
				if v.Parent() == pass.Pkg.Scope() {
					pass.Reportf(res.Pos(),
						"constructor %s returns package-level %s: each call must return a fresh instance, or partitions share scratch buffers",
						fd.Name.Name, e.Name)
				} else if isParam(pass, fd, v) {
					pass.Reportf(res.Pos(),
						"constructor %s returns its parameter %s: the caller already owns that instance — allocate a fresh one",
						fd.Name.Name, e.Name)
				}
			}
		}
		return true
	})
}

// checkClonePolicy enforces the fork contract on scratch carriers: a
// ClonePolicy method must mint a cold clone. Returning the receiver
// (or a dereferenced copy of it) shares one scratch between the two
// lineages; reading the receiver's scratch field copies slice headers
// whose backing arrays the parent keeps mutating. Warming a freshly
// allocated clone's own scratch is fine.
func checkClonePolicy(pass *analysis.Pass, carrying map[*types.Named]bool, scratch *types.Named, fd *ast.FuncDecl) {
	if fd.Name.Name != "ClonePolicy" || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
		return
	}
	rt := pass.TypeOf(fd.Recv.List[0].Type)
	if rt == nil {
		return
	}
	if ptr, ok := rt.Underlying().(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if !isCarrying(carrying, rt) {
		return
	}
	var recv *types.Var
	if names := fd.Recv.List[0].Names; len(names) == 1 {
		recv, _ = pass.TypesInfo.Defs[names[0]].(*types.Var)
	}
	isRecv := func(e ast.Expr) bool {
		if recv == nil {
			return false
		}
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				return pass.TypesInfo.Uses[x] == recv
			default:
				return false
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				e := ast.Unparen(res)
				if star, ok := e.(*ast.StarExpr); ok {
					e = star.X
				}
				if isRecv(e) {
					pass.Reportf(res.Pos(),
						"ClonePolicy on %s returns its receiver: both lineages would share one scratch — allocate a fresh instance",
						typeName(rt))
				}
			}
		case *ast.SelectorExpr:
			t := pass.TypeOf(n)
			if t != nil && types.Identical(types.Unalias(t), scratch) && isRecv(n.X) {
				pass.Reportf(n.Pos(),
					"ClonePolicy on %s reads the receiver's scratch: the clone would alias the parent's buffers — start the clone cold",
					typeName(rt))
			}
		}
		return true
	})
}

// checkFreeLists enforces rule 5 over the package.
func checkFreeLists(pass *analysis.Pass) {
	// The free-list fields: struct fields annotated //simvet:freelist.
	lists := map[types.Object]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if field, ok := n.(*ast.Field); ok && pass.Annotated(file, []ast.Node{field}, "freelist") {
				for _, name := range field.Names {
					lists[pass.TypesInfo.Defs[name]] = true
				}
			}
			return true
		})
	}
	if len(lists) == 0 {
		return
	}
	// mentions returns the free-list field an identifier resolves to
	// (a selector's Sel, or the key of a composite literal), or nil.
	mentions := func(n ast.Node) types.Object {
		if id, ok := n.(*ast.Ident); ok && lists[pass.TypesInfo.Uses[id]] {
			return pass.TypesInfo.Uses[id]
		}
		return nil
	}
	// The functions that take from or add to a list: a fork calling one
	// moves a recycled record across lineages as surely as reading the
	// field does.
	var forks []*ast.FuncDecl
	users := map[*types.Func]types.Object{}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isForkName(fd.Name.Name) {
				forks = append(forks, fd)
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if list := mentions(n); list != nil {
					if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						users[fn] = list
					}
				}
				return true
			})
		}
	}
	for _, fd := range forks {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if list := mentions(n); list != nil {
				pass.Reportf(n.Pos(),
					"%s mentions free list %s: a fork starts with an empty list and allocates its records fresh, or recycled memory is reachable from two lineages",
					fd.Name.Name, list.Name())
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := pass.Callee(call); fn != nil && users[fn] != nil {
					pass.Reportf(call.Pos(),
						"%s calls %s, which uses free list %s: a fork allocates its records fresh and leaves the list alone",
						fd.Name.Name, fn.Name(), users[fn].Name())
				}
			}
			return true
		})
	}
}

// isForkName matches the functions that build a forked lineage's
// state: Fork, the fork* helpers beside it, and ClonePolicy.
func isForkName(name string) bool {
	return name == "ClonePolicy" || strings.HasPrefix(name, "Fork") || strings.HasPrefix(name, "fork")
}

// isParam reports whether v is one of fd's parameters (including the
// receiver).
func isParam(pass *analysis.Pass, fd *ast.FuncDecl, v *types.Var) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if pass.TypesInfo.Defs[name] == v {
					return true
				}
			}
		}
		return false
	}
	return check(fd.Type.Params) || check(fd.Recv)
}

func typeName(t types.Type) string {
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
