package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// stdCalledMethods are the method names the standard library calls
// through its own interfaces, so a module method of one of these names is
// reached without any module code naming it.
var stdCalledMethods = map[string]bool{
	"String": true, // fmt.Stringer
	"Error":  true, // error
	"Unwrap": true, // errors.Unwrap, errors.Is/As
	"Is":     true, // errors.Is
	"Len":    true, // sort.Interface, heap.Interface
	"Less":   true, // sort.Interface
	"Swap":   true, // sort.Interface
	"Push":   true, // heap.Interface
	"Pop":    true, // heap.Interface
	"Read":   true, // io.Reader
	"Write":  true, // io.Writer
	"Close":  true, // io.Closer
	// http.Handler
	"ServeHTTP": true,
	// json.Marshaler, json.Unmarshaler
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Import": true, // go/types.Importer
}

// reflectCalls are the reflect methods that call a function or method
// chosen at run time; the walk's fan-out by name is sound only while no
// non-test code uses them.
var reflectCalls = map[string]bool{"Method": true, "MethodByName": true, "Call": true, "CallSlice": true}

// unreachedReasons are the four reasons a //wls:nolint unreached directive
// may give: the ROADMAP item that will reach the function, a paper
// feature only a test of its claim exercises, a hook other packages' tests
// call, or an entry point benchmark/ compiles against.
var unreachedReasons = []string{"item ", "library-only: ", "test hook: ", "benchmark: "}

// Unreached reports a non-test function that no binary reaches.
//
// The roots are main of every main package; every init and package-level
// var initializer in the module packages those mains import, directly or
// not; every module method named in stdCalledMethods; and every function
// whose doc comment carries //wls:nolint unreached -- <reason>, which is
// how a deliberate library entry point is declared: one directive roots
// all its callees and, since it hands its results to a caller outside the
// binaries, the exported methods of the package's types it returns, and
// in turn those of the types those methods return (see resultMethods). From
// a reached body, every function or method it names, called or used as a
// value, is reached; a method named through an interface I reaches the
// module methods of that name in the method set of a module type that
// implements I, promoted ones included. Reflection could break the
// fan-out, so a use of reflect's Method, MethodByName, Call or CallSlice,
// or a //go:linkname, is itself reported.
//
// Main packages are roots, never findings, and a package whose name ends
// in "test" (simtest, kvtest) is test code, exempt like a _test.go file.
// A directive on a function another root reaches anyway is reported, so
// directives cannot outlive the need for them, and so is one whose reason
// is not one of unreachedReasons. The same packages' unread fields and
// unwritten settings are reported too (see fieldRules).
func Unreached() *Analyzer {
	return &Analyzer{
		Name: "unreached",
		Doc:  "flags non-test functions no main, init or declared library entry point reaches, fields no code reads, and settings no code sets",
		Run:  func(*Pass) {},
		Finish: func(g *GlobalPass) {
			unreachedFinish(g, fieldRules(g))
		},
	}
}

// unreachedFinish walks the functions; kept holds the directives
// fieldRules read from struct and field doc comments.
func unreachedFinish(g *GlobalPass, kept map[*ast.Comment]bool) {
	byTypes := map[*types.Package]*Package{}
	for _, p := range g.Pkgs {
		byTypes[p.Types] = p
	}
	type funcDecl struct {
		decl *ast.FuncDecl
		pkg  *Package
	}
	decls := map[*types.Func]funcDecl{}
	var order []*types.Func // declaration order, for reporting
	directive := map[*types.Func]token.Pos{}

	type pkgNode struct {
		pkg  *Package
		node ast.Node
	}
	var roots []*types.Func
	var initExprs []pkgNode // package-level var initializers
	reached := map[*types.Func]bool{}
	var work []*types.Func
	reach := func(fn *types.Func) {
		if fn = fn.Origin(); !reached[fn] {
			reached[fn] = true
			work = append(work, fn)
		}
	}

	// The module packages a main imports, directly or not.
	closure := map[*Package]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if closure[p] {
			return
		}
		closure[p] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := byTypes[imp]; ok {
				visit(dep)
			}
		}
	}
	for _, p := range g.Pkgs {
		if p.Types.Name() == "main" {
			visit(p)
		}
	}

	for _, p := range g.Pkgs {
		for _, f := range p.Files {
			attached := map[*ast.Comment]bool{}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					decls[fn] = funcDecl{d, p}
					order = append(order, fn)
					if c := unreachedDirective(d.Doc); c != nil {
						attached[c] = true
						directive[fn] = c.Pos()
						checkUnreachedReason(g, c)
					}
					switch {
					case d.Recv == nil && d.Name.Name == "main" && p.Types.Name() == "main",
						d.Recv == nil && d.Name.Name == "init" && closure[p],
						d.Recv != nil && stdCalledMethods[d.Name.Name]:
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR || !closure[p] {
						continue
					}
					for _, spec := range d.Specs {
						for _, v := range spec.(*ast.ValueSpec).Values {
							initExprs = append(initExprs, pkgNode{p, v})
						}
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !attached[c] && !kept[c] && isUnreachedDirective(c.Text) {
						g.Reportf(c.Pos(), "//wls:nolint unreached belongs in the doc comment of the function it roots or of the exported struct or field it keeps")
					}
					if strings.HasPrefix(c.Text, "//go:linkname") {
						g.Reportf(c.Pos(), "//go:linkname reaches a function no walk of the source can see")
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && pkgPathOf(p.Info.Uses[sel.Sel]) == "reflect" && reflectCalls[sel.Sel.Name] {
					g.Reportf(sel.Pos(), "reflect's %s calls methods no walk of the source can see", sel.Sel.Name)
				}
				return true
			})
		}
	}

	// The module's named non-interface types, the candidates for what an
	// interface value holds.
	var concrete []*types.Named
	for _, p := range g.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if t, ok := tn.Type().(*types.Named); ok && !types.IsInterface(t) {
					concrete = append(concrete, t)
				}
			}
		}
	}

	// names reaches every function a node names. A method m named through
	// an interface stands for m's name in the method set of each module
	// type whose pointer implements the interface, and of each generic
	// type whatever its instances implement. Only module functions have a
	// body to walk.
	names := func(p *Package, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				iface := recv.Type().Underlying().(*types.Interface)
				for _, t := range concrete {
					ptr := types.NewPointer(t)
					if t.TypeParams().Len() > 0 || types.Implements(ptr, iface) {
						if sel := types.NewMethodSet(ptr).Lookup(fn.Pkg(), fn.Name()); sel != nil {
							reach(sel.Obj().(*types.Func))
						}
					}
				}
				return true
			}
			reach(fn)
			return true
		})
	}
	walk := func() {
		for len(work) > 0 {
			fn := work[len(work)-1]
			work = work[:len(work)-1]
			if d, ok := decls[fn]; ok && d.decl.Body != nil {
				names(d.pkg, d.decl.Body)
			}
		}
	}

	// First the binaries' own roots: a directive on anything they reach
	// is stale.
	for _, fn := range roots {
		reach(fn)
	}
	for _, e := range initExprs {
		names(e.pkg, e.node)
	}
	walk()
	// Then each directive's callees; a directive function one of them
	// reaches needed no directive of its own.
	viaDirective := map[*types.Func]bool{}
	for _, fn := range order {
		if _, ok := directive[fn]; ok && !reached[fn] {
			viaDirective[fn] = true
		}
	}
	for _, fn := range order {
		if viaDirective[fn] {
			names(decls[fn].pkg, decls[fn].decl.Body)
			resultMethods(fn, reach)
		}
	}
	walk()

	for _, fn := range order {
		d := decls[fn]
		if pos, ok := directive[fn]; ok {
			if reached[fn] {
				g.Reportf(pos, "%s is reached without this directive; remove it", funcLabel(fn))
			}
			continue
		}
		if reached[fn] || d.pkg.Types.Name() == "main" || strings.HasSuffix(d.pkg.Types.Name(), "test") {
			continue
		}
		g.Reportf(d.decl.Name.Pos(), "%s is reached by no binary: delete it, move it to a _test.go file, or declare why it stays with //wls:nolint unreached -- <reason>", funcLabel(fn))
	}
}

// reflectPkgs are the packages whose functions may set a struct's fields
// through reflection.
var reflectPkgs = map[string]bool{"reflect": true, "encoding/json": true, "encoding/xml": true, "encoding/gob": true, "encoding/asn1": true}

// fieldRules reports two kinds of field, declared in a named struct type
// of a non-main package whose name does not end in "test".
//
// An unexported field no code reads. Assigning it — as the whole left
// side of = or := — or naming it as a composite literal's key writes it;
// every other use reads it, x.f++ and x.f += 1 included. Comparing a
// struct with == or != or keying a map by it reads every field, nested
// structs' too. There is no directive: an unread field goes, with its
// writes, and a directive on it is reported as misplaced.
//
// An exported field of an exported struct that no non-test code writes:
// a setting only tests set. A write from a package whose name ends in
// "test" is a test's write. The left side of =, := or op= writes it,
// unless the assignment sits inside an if whose condition reads the same
// field, which fills a default; so do ++ and --, a composite literal's key
// or position, and &x.F. A struct with field tags, or one passed to a
// function of reflectPkgs, is exempt. A //wls:nolint unreached -- <reason>
// in the field's doc comment keeps the field, and one in the struct's doc
// comment keeps all its fields; a directive that keeps nothing is
// reported.
//
// A field of an instantiated generic type is its origin's. An embedded
// field is never reported: it is there for what it promotes. fieldRules
// returns the directives it read.
func fieldRules(g *GlobalPass) map[*ast.Comment]bool {
	type field struct {
		v         *types.Var
		owner     *types.TypeName
		setting   bool         // exported, of an exported struct without tags
		own, keep *ast.Comment // the field's directive, its struct's
	}
	var fields []field
	directives := map[*ast.Comment]bool{}
	read, written := map[*types.Var]bool{}, map[*types.Var]bool{}
	reflected := map[*types.TypeName]bool{}
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				readAll(u.Field(i).Type())
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	directive := func(doc *ast.CommentGroup) *ast.Comment {
		if c := unreachedDirective(doc); c != nil {
			directives[c] = true
			checkUnreachedReason(g, c)
			return c
		}
		return nil
	}
	for _, p := range g.Pkgs {
		testPkg := strings.HasSuffix(p.Types.Name(), "test")
		report := p.Types.Name() != "main" && !testPkg
		write := func(v *types.Var) {
			if !testPkg {
				written[v] = true
			}
		}
		fieldOf := func(e ast.Expr) *types.Var {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					return v.Origin()
				}
			}
			return nil
		}
		assigned := map[*ast.Ident]bool{} // uses that are no reads
		fills := map[ast.Expr]bool{}      // left sides that fill a default
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GenDecl:
					if n.Tok != token.TYPE || !report {
						break
					}
					for _, spec := range n.Specs {
						ts := spec.(*ast.TypeSpec)
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						doc := ts.Doc
						if doc == nil && !n.Lparen.IsValid() {
							doc = n.Doc
						}
						var keep *ast.Comment
						tagged := false
						if ts.Name.IsExported() {
							keep = directive(doc)
							for _, fl := range st.Fields.List {
								tagged = tagged || fl.Tag != nil
							}
						}
						for _, fl := range st.Fields.List {
							var own *ast.Comment
							if ts.Name.IsExported() && slices.ContainsFunc(fl.Names, (*ast.Ident).IsExported) {
								own = directive(fl.Doc)
							}
							for _, id := range fl.Names {
								if v, ok := p.Info.Defs[id].(*types.Var); ok && id.Name != "_" {
									setting := v.Exported() && ts.Name.IsExported() && !tagged
									fields = append(fields, field{v, p.Info.Defs[ts.Name].(*types.TypeName), setting, own, keep})
								}
							}
						}
					}
				case *ast.IfStmt:
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						id, _ := c.(*ast.Ident)
						if v, ok := p.Info.Uses[id].(*types.Var); ok && v.IsField() {
							ast.Inspect(n, func(m ast.Node) bool {
								if as, ok := m.(*ast.AssignStmt); ok {
									for _, l := range as.Lhs {
										fills[l] = fills[l] || fieldOf(l) == v.Origin()
									}
								}
								return true
							})
						}
						return true
					})
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok && n.Tok == token.ASSIGN {
							assigned[sel.Sel] = true
						}
						if v := fieldOf(l); v != nil && !fills[l] {
							write(v)
						}
					}
				case *ast.IncDecStmt:
					if v := fieldOf(n.X); v != nil {
						write(v)
					}
				case *ast.UnaryExpr:
					if v := fieldOf(n.X); v != nil && n.Op == token.AND {
						write(v)
					}
				case *ast.CompositeLit:
					t := p.Info.TypeOf(n)
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, isStruct := t.Underlying().(*types.Struct)
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								assigned[id] = true
								if v, ok := p.Info.Uses[id].(*types.Var); ok && v.IsField() {
									write(v.Origin())
								}
							}
						} else if isStruct {
							write(st.Field(i).Origin())
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(p.Info.TypeOf(n.X))
						readAll(p.Info.TypeOf(n.Y))
					}
				case *ast.CallExpr:
					if reflectPkgs[pkgPathOf(calleeObject(p.Info, n))] {
						for _, a := range n.Args {
							t := p.Info.TypeOf(a)
							if ptr, ok := t.(*types.Pointer); ok {
								t = ptr.Elem()
							}
							if named, ok := t.(*types.Named); ok {
								reflected[named.Obj()] = true
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !assigned[id] {
				read[v.Origin()] = true
			}
		}
		for _, tv := range p.Info.Types {
			if m, ok := tv.Type.(*types.Map); ok {
				readAll(m.Key())
			}
		}
	}
	kept := map[*ast.Comment]bool{} // struct directives that keep a field
	for _, f := range fields {
		label := f.v.Pkg().Name() + "." + f.owner.Name() + "." + f.v.Name()
		unwritten := f.setting && !written[f.v] && !reflected[f.owner]
		switch {
		case !f.v.Exported():
			if !read[f.v] {
				g.Reportf(f.v.Pos(), "%s is never read: delete it with its writes", label)
			}
		case f.own != nil && !unwritten:
			g.Reportf(f.own.Pos(), "%s is written without this directive; remove it", label)
		case f.own != nil || !unwritten:
		case f.keep != nil:
			kept[f.keep] = true
		default:
			g.Reportf(f.v.Pos(), "%s is set by no non-test code: make it a constant, delete it, or declare why it stays with //wls:nolint unreached -- <reason>", label)
		}
	}
	for _, f := range fields {
		if f.keep != nil && !kept[f.keep] {
			kept[f.keep] = true // report once
			g.Reportf(f.keep.Pos(), "every field of %s is written without this directive; remove it", f.owner.Name())
		}
	}
	return directives
}

// checkUnreachedReason reports a //wls:nolint unreached directive whose
// reason is not one of unreachedReasons.
func checkUnreachedReason(g *GlobalPass, c *ast.Comment) {
	if !hasUnreachedReason(c.Text) {
		g.Reportf(c.Pos(), "//wls:nolint unreached must give its reason as \"item N: …\", \"library-only: §x, TestName\", \"test hook: TestName\" or \"benchmark: …\"")
	}
}

// resultMethods reaches the exported methods of every type of fn's
// package that fn returns, and in turn those of every type of their
// package that those methods return, until nothing new is reached: a
// declared entry point hands its results to a caller outside the
// binaries, which may call any of them, and use what they return.
func resultMethods(fn *types.Func, reach func(*types.Func)) {
	seen := map[*types.Func]bool{fn: true}
	for work := []*types.Func{fn}; len(work) > 0; {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		res := fn.Type().(*types.Signature).Results()
		for i := 0; i < res.Len(); i++ {
			t := res.At(i).Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() != fn.Pkg() {
				continue
			}
			for j := 0; j < named.NumMethods(); j++ {
				if m := named.Method(j); m.Exported() && !seen[m] {
					seen[m] = true
					reach(m)
					work = append(work, m)
				}
			}
		}
	}
}

// unreachedDirective returns the //wls:nolint directive naming unreached
// in a doc comment, or nil.
func unreachedDirective(doc *ast.CommentGroup) *ast.Comment {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if isUnreachedDirective(c.Text) {
			return c
		}
	}
	return nil
}

func isUnreachedDirective(text string) bool {
	rest, ok := strings.CutPrefix(text, "//wls:nolint ")
	if !ok {
		return false
	}
	names, _, _ := strings.Cut(rest, "--")
	for _, n := range strings.Split(names, ",") {
		if strings.TrimSpace(n) == "unreached" {
			return true
		}
	}
	return false
}

func hasUnreachedReason(text string) bool {
	_, reason, _ := strings.Cut(text, "--")
	reason = strings.TrimSpace(reason)
	for _, r := range unreachedReasons {
		if strings.HasPrefix(reason, r) && len(reason) > len(r) {
			return true
		}
	}
	return false
}
