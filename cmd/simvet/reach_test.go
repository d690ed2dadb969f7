package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

// TestReachCleanOnRepo is the whole-program half of the acceptance
// gate: every top-level declaration of non-test Go is reached from a
// binary's main, a package init or the public API (dlb and drom), and
// every field of a reached struct type is read, or it carries a
// //simvet:testonly mark (see reach). A failure names a declaration no binary reaches or
// a field nothing reads: delete it along with the tests that only
// checked it, or mark it a test reference with a reason. A testonly
// name a root reaches is a failure too, so the mark cannot hide live
// code.
func TestReachCleanOnRepo(t *testing.T) {
	pkgs := repoPackages(t)
	// bench/ changes only together with the benchmark it defines, so
	// its two write-only fields wait for ROADMAP's "the program says
	// where its time goes" item: calEvent.id keeps the calibration
	// entry the engine's 24-byte size on purpose. Either one going, or
	// any other finding in bench/, fails here.
	pinned := map[string]bool{
		"repro/bench.calEvent.id: no reached body reads it": false,
		"repro/bench.side.runs: no reached body reads it":   false,
	}
	for _, f := range reach(pkgs, "repro/dlb", "repro/drom") {
		if _, ok := pinned[f.msg]; ok {
			pinned[f.msg] = true
			continue
		}
		t.Errorf("%s: %s", pkgs[0].Fset.Position(f.pos), f.msg)
	}
	for msg, seen := range pinned {
		if !seen {
			t.Errorf("pinned finding is gone, drop its pin: %s", msg)
		}
	}
}

// TestReachFixture pins the rules on a small std-lib-only module:
// every finding, and only those, in a fixed order.
func TestReachFixture(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range reach(pkgs, "fix/facade") {
		got = append(got, f.msg)
	}
	want := []string{
		"fix/facade.helperDead: no main reaches it",
		"fix/lib.Circle.Sides: no main reaches it",
		"fix/lib.Dead: no main reaches it",
		"fix/lib.Deep.Method: no main reaches it",
		"fix/lib.Exposed.hidden: no main reaches it",
		"fix/lib.Hex: no main reaches it",
		"fix/lib.Orphan: no main reaches it",
		"fix/lib.Rec.lit: no reached body reads it",
		"fix/lib.Rec.live: testonly, but a root reads it",
		"fix/lib.Rec.wo: no reached body reads it",
		"fix/lib.Ref: testonly, but a root reaches it",
		"fix/lib.Shape.Sides: no main reaches it",
		"fix/lib.Square.Sides: no main reaches it",
		"fix/lib.T.Unused: no main reaches it",
		"fix/lib.Unused: no main reaches it",
		"fix/lib.orphan: no main reaches it",
		"fix/tp: testonly package, but a root imports it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// reachFinding is one declaration the reach rules reject.
type reachFinding struct {
	pos token.Pos
	msg string
}

// reachDecl is one top-level func, method, type, const or var of the
// loaded program, or one method a top-level interface type declares.
// Declarations are keyed by "path.Name" (methods by "path.Type.Name"),
// not by object identity: load type-checks each package from source
// but imports its dependencies from export data, so one declaration
// has an object per importer.
type reachDecl struct {
	key      string
	path     string // package
	pos      token.Pos
	info     *types.Info
	node     ast.Node // walked for uses once reached
	recv     string   // receiver type key; methods only
	sig      string   // name and signature; methods only
	abstract bool     // an interface's method
	static   bool     // method a std or unnamed interface declares, or generic
	group    []string // the whole iota block a const belongs to
	marked   bool     // carries //simvet:testonly itself
	testonly bool     // marked, or on a marked type or in a marked package
	exported bool
}

// reachField is one field of a top-level struct type, keyed
// "path.Type.Name". Embedded and tagged fields are not listed: a
// promotion or reflection reads them.
type reachField struct {
	key    string
	recv   string // the struct type's key
	pos    token.Pos
	marked bool // carries //simvet:testonly itself
}

// reach runs rapid type analysis (Bacon & Sweeney, OOPSLA '96) over
// pkgs and returns its findings sorted by message. The roots are main
// and init of every package main, the init of every package a root
// package imports, the exported names (methods included) of the
// facade packages, and the API those names hand out (see exposed):
// the types a facade aliases or names in its signatures, with their
// exported methods. A reached declaration's syntax reaches every
// top-level name it uses; `var _ I = (*T)(nil)` reaches nothing.
//
// A method, concrete or an interface's, is reached once its receiver
// type is and a reached body names it (a call, a method value or a
// method expression). A concrete method is reached with its type as
// well when a reached interface method of the program has its name and
// signature (the dispatch an interface call makes). So is any method
// whose name and signature an interface of the std-lib, error or an
// interface literal of the program declares: String, Error, Len and
// MarshalText are called from code the check does not walk. When in
// doubt, a method counts as reached (generic receivers always do): a
// false "reached" only misses a deletion.
//
// A //simvet:testonly <reason> mark on a declaration, on a type (its
// methods too) or on a package clause (the whole package) makes it a
// test reference: not a finding, and what only it reaches is not one
// either. A testonly name a root reaches, or a testonly package a
// root package imports, is a finding.
//
// A field of a reached struct type is a finding when no reached body
// reads it. A selector reads its field unless it is the whole left
// side of = or op=, or the operand of ++ or --; a composite-literal
// key never reads. Reads from what only test references reach count,
// and a field may carry the mark too. The exported fields of the types
// a facade hands out are read by its users (see exposedFields).
func reach(pkgs []*load.Package, facades ...string) []reachFinding {
	byPath := map[string]*load.Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	static := staticMethods(pkgs, byPath)
	decls := map[string]*reachDecl{}
	methods := map[string][]*reachDecl{} // receiver type key -> its methods
	bySig := map[string][]*reachDecl{}   // name and signature -> concrete methods
	var order []*reachDecl
	var roots []string
	var fields []*reachField
	testonlyPkg := map[string]bool{}
	add := func(d *reachDecl) {
		decls[d.key] = d
		order = append(order, d)
		if d.recv != "" {
			methods[d.recv] = append(methods[d.recv], d)
		}
		if d.recv != "" && !d.abstract {
			bySig[d.sig] = append(bySig[d.sig], d)
		}
	}
	method := func(d *reachDecl, fn *types.Func) {
		d.recv, _ = recvKey(fn)
		d.key = d.recv + "." + fn.Name()
		d.sig = sigKey(fn)
		d.static = static[d.sig] || fn.Type().(*types.Signature).RecvTypeParams().Len() > 0
	}

	// Root packages: every package main and every facade, plus what
	// they import (whose inits run).
	rootPkg := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		p := byPath[path]
		if p == nil || rootPkg[path] {
			return
		}
		rootPkg[path] = true
		for _, imp := range p.Types.Imports() {
			visit(imp.Path())
		}
	}
	for _, p := range pkgs {
		if p.Types.Name() == "main" || slices.Contains(facades, p.ImportPath) {
			visit(p.ImportPath)
		}
	}

	for _, p := range pkgs {
		path, entries := p.ImportPath, 0
		for _, f := range p.Files {
			if hasMark(f.Doc) {
				testonlyPkg[path] = true
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					name := decl.Name.Name
					d := &reachDecl{key: path + "." + name, path: path, pos: decl.Pos(), info: p.TypesInfo, node: decl,
						marked: hasMark(decl.Doc), exported: ast.IsExported(name)}
					if decl.Recv != nil {
						method(d, p.TypesInfo.Defs[decl.Name].(*types.Func))
						d.exported = d.exported && ast.IsExported(d.recv[len(path)+1:])
					} else if name == "init" || name == "main" && p.Types.Name() == "main" {
						// A package may have several inits: number them.
						entries++
						d.key += "#" + strconv.Itoa(entries)
						if rootPkg[path] {
							roots = append(roots, d.key)
						}
					}
					add(d)
				case *ast.GenDecl:
					var group []string
					iota := decl.Tok == token.CONST && usesIota(decl)
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							typ := &reachDecl{key: path + "." + spec.Name.Name, path: path, pos: spec.Pos(), info: p.TypesInfo, node: spec,
								marked: hasMark(decl.Doc) || hasMark(spec.Doc) || hasMark(spec.Comment), exported: spec.Name.IsExported()}
							add(typ)
							if st, ok := spec.Type.(*ast.StructType); ok {
								for _, field := range st.Fields.List {
									for _, id := range field.Names {
										if field.Tag == nil {
											fields = append(fields, &reachField{key: typ.key + "." + id.Name, recv: typ.key, pos: id.Pos(),
												marked: hasMark(field.Doc) || hasMark(field.Comment)})
										}
									}
								}
							}
							it, ok := spec.Type.(*ast.InterfaceType)
							if !ok {
								continue
							}
							for _, field := range it.Methods.List {
								for _, id := range field.Names {
									d := &reachDecl{path: path, pos: id.Pos(), info: p.TypesInfo, node: field,
										abstract: true, exported: spec.Name.IsExported() && id.IsExported()}
									method(d, p.TypesInfo.Defs[id].(*types.Func))
									add(d)
								}
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.Name == "_" {
									continue
								}
								d := &reachDecl{key: path + "." + id.Name, path: path, pos: id.Pos(), info: p.TypesInfo, node: spec,
									marked:   hasMark(decl.Doc) || hasMark(spec.Doc) || hasMark(spec.Comment),
									exported: id.IsExported()}
								if iota {
									group = append(group, d.key)
								}
								add(d)
							}
						}
					}
					for _, k := range group {
						decls[k].group = group
					}
				}
			}
		}
	}
	for _, d := range order {
		d.testonly = d.marked || testonlyPkg[d.path] || decls[d.recv] != nil && decls[d.recv].marked
		if d.exported && slices.Contains(facades, d.path) {
			roots = append(roots, d.key)
		}
	}
	read := map[string]bool{}
	for _, path := range facades {
		if p := byPath[path]; p != nil {
			roots = append(roots, exposed(p.Types)...)
			for _, k := range exposedFields(p.Types) {
				read[k] = true
			}
		}
	}

	reached := map[string]bool{}
	named := map[string]bool{} // methods a reached body names
	live := map[string]bool{}  // signatures of reached interface methods
	var work []string
	mark := func(key string) {
		if d := decls[key]; d != nil && !reached[key] {
			reached[key] = true
			work = append(work, key)
		}
	}
	flood := func() {
		for len(work) > 0 {
			d := decls[work[len(work)-1]]
			work = work[:len(work)-1]
			for _, k := range d.group {
				mark(k)
			}
			for _, m := range methods[d.key] {
				if named[m.key] || m.static || !m.abstract && live[m.sig] {
					mark(m.key)
				}
			}
			if d.abstract && !live[d.sig] {
				live[d.sig] = true
				for _, m := range bySig[d.sig] {
					if reached[m.recv] {
						mark(m.key)
					}
				}
			}
			written := map[ast.Expr]bool{} // selectors a statement assigns
			ast.Inspect(d.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							written[ast.Unparen(lhs)] = true
						}
					}
				case *ast.IncDecStmt:
					written[ast.Unparen(n.X)] = true
				case *ast.SelectorExpr:
					if sel := d.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !written[n] {
						read[fieldKey(sel)] = true
					}
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				key, recv := objKey(d.info.Uses[id])
				if recv == "" {
					mark(key)
				} else if !named[key] {
					named[key] = true
					if reached[recv] {
						mark(key)
					}
				}
				return true
			})
		}
	}
	for _, k := range roots {
		mark(k)
	}
	flood()

	var out []reachFinding
	for _, d := range order {
		if reached[d.key] && d.marked {
			out = append(out, reachFinding{d.pos, d.key + ": testonly, but a root reaches it"})
		}
	}
	for _, f := range fields {
		if read[f.key] && f.marked {
			out = append(out, reachFinding{f.pos, f.key + ": testonly, but a root reads it"})
		}
	}
	for path := range testonlyPkg {
		if rootPkg[path] {
			out = append(out, reachFinding{byPath[path].Files[0].Package, path + ": testonly package, but a root imports it"})
		}
	}
	// What only test references reach is theirs.
	for _, d := range order {
		if d.testonly {
			mark(d.key)
		}
	}
	flood()
	for _, d := range order {
		// A method of an unreached type is the type's finding.
		if !reached[d.key] && (d.recv == "" || reached[d.recv]) {
			out = append(out, reachFinding{d.pos, d.key + ": no main reaches it"})
		}
	}
	// A field of an unreached type is the type's finding too; a field
	// of a marked type, or in a marked package, is a test reference.
	for _, f := range fields {
		if reached[f.recv] && !read[f.key] && !f.marked && !decls[f.recv].testonly {
			out = append(out, reachFinding{f.pos, f.key + ": no reached body reads it"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].msg < out[j].msg })
	return out
}

// exposed returns the keys of the API a facade hands out beyond its
// own declarations: every named type of the program that an exported
// name of the facade aliases or mentions in its type (a signature, a
// var's type, an exported field or method of a facade type), with all
// of that type's exported methods, promoted ones included. A facade
// user can call these whether or not a binary does. The walk stops at
// those types: what their methods take and return is reached only
// when a reached body names it.
func exposed(facade *types.Package) []string {
	var keys []string
	walkFacade(facade, func(n *types.Named, mention func(types.Type)) {
		obj := n.Origin().Obj()
		switch obj.Pkg() {
		case nil: // error
		case facade:
			exportedMethods(n, func(m *types.Func) { mention(m.Type()) })
			mention(n.Underlying())
		default:
			keys = append(keys, obj.Pkg().Path()+"."+obj.Name())
			exportedMethods(n, func(m *types.Func) {
				if key, _ := objKey(m); key != "" {
					keys = append(keys, key)
				}
			})
		}
	})
	return keys
}

// exposedFields returns the keys of the exported fields a facade user
// can read: those of every named struct type reachable from the
// facade's exported names through exported fields and exported method
// signatures. Unlike exposed, the walk goes on past each named type.
func exposedFields(facade *types.Package) []string {
	var keys []string
	walkFacade(facade, func(n *types.Named, mention func(types.Type)) {
		exportedMethods(n, func(m *types.Func) { mention(m.Type()) })
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			mention(n.Underlying())
			return
		}
		obj := n.Origin().Obj()
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Exported() {
				keys = append(keys, obj.Pkg().Path()+"."+obj.Name()+"."+f.Name())
			}
			if f.Exported() || f.Embedded() { // an embedded field promotes
				mention(f.Type())
			}
		}
	})
	return keys
}

// walkFacade calls named once for each named type the exported names
// of a facade mention, through the elements, keys, parameters, results
// and exported fields of unnamed types and the type arguments of named
// ones. named goes on from a named type by calling mention.
func walkFacade(facade *types.Package, named func(n *types.Named, mention func(types.Type))) {
	seen := map[types.Type]bool{}
	var mention func(t types.Type)
	mention = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			for i := 0; i < t.TypeArgs().Len(); i++ {
				mention(t.TypeArgs().At(i))
			}
			named(t, mention)
		case *types.Pointer:
			mention(t.Elem())
		case *types.Slice:
			mention(t.Elem())
		case *types.Array:
			mention(t.Elem())
		case *types.Chan:
			mention(t.Elem())
		case *types.Map:
			mention(t.Key())
			mention(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					mention(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					mention(f.Type())
				}
			}
		}
	}
	for _, name := range facade.Scope().Names() {
		if obj := facade.Scope().Lookup(name); obj.Exported() {
			mention(obj.Type())
		}
	}
}

// exportedMethods calls fn on each exported method of t's method set,
// the pointer receiver's for a non-interface type, promoted ones
// included.
func exportedMethods(t types.Type, fn func(*types.Func)) {
	if !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj().(*types.Func); m.Exported() {
			fn(m)
		}
	}
}

// fieldKey returns the key of the field a field selection reads: the
// last step of its path, through any embedded fields ("" for a field
// of an unnamed struct).
func fieldKey(sel *types.Selection) string {
	t, key := sel.Recv(), ""
	for _, i := range sel.Index() {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(i)
		key = ""
		if n, ok := types.Unalias(t).(*types.Named); ok {
			obj := n.Origin().Obj()
			key = obj.Pkg().Path() + "." + obj.Name() + "." + f.Name()
		}
		t = f.Type()
	}
	return key
}

// objKey returns the declaration key of a use's object ("" for locals,
// fields, builtins and methods of unnamed interfaces) and, for a
// method, its receiver type's key.
func objKey(obj types.Object) (key, recv string) {
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if fn.Type().(*types.Signature).Recv() != nil {
			if recv, ok = recvKey(fn); !ok {
				return "", ""
			}
			return recv + "." + fn.Name(), recv
		}
		obj = fn.Origin()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return "", ""
	}
	return obj.Pkg().Path() + "." + obj.Name(), ""
}

// recvKey returns the key of the named type a method is declared on;
// ok is false for a method of an unnamed interface.
func recvKey(fn *types.Func) (key string, ok bool) {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	tn := n.Origin().Obj()
	return tn.Pkg().Path() + "." + tn.Name(), true
}

// sigKey spells a method's name and its parameter and result types,
// names dropped, so a method matches an interface however either
// names its parameters.
func sigKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	b := strings.Builder{}
	b.WriteString(fn.Name() + "(")
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// staticMethods collects the name and signature of every method that
// error, an interface of a package outside the program (the std-lib,
// imported transitively) or an interface literal of the program
// declares: code the check does not walk may call these.
func staticMethods(pkgs []*load.Package, program map[string]*load.Package) map[string]bool {
	s := map[string]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				s[sigKey(it.Method(i))] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[string]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		if program[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	for _, p := range pkgs {
		scan(p.Types)
		for _, f := range p.Files {
			declared := map[ast.Expr]bool{} // top-level interface types
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						declared[spec.(*ast.TypeSpec).Type] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok && !declared[it] {
					addIface(p.TypesInfo.Types[it].Type)
				}
				return true
			})
		}
	}
	return s
}

// hasMark reports whether a comment group carries //simvet:testonly
// with a reason.
func hasMark(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if reason, ok := strings.CutPrefix(c.Text, "//simvet:testonly "); ok && strings.TrimSpace(reason) != "" {
			return true
		}
	}
	return false
}

// usesIota reports whether a const declaration is an iota block.
func usesIota(decl *ast.GenDecl) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
