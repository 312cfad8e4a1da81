package lint

import (
	"go/ast"
	"go/token"
	"go/types"
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
// binaries, the exported methods of the package's types it returns. From a reached body, every function or method it
// names, called or used as a value, is reached; a method named through an
// interface reaches every module method of that name. Reflection could
// break the fan-out, so a use of reflect's Method, MethodByName, Call or
// CallSlice, or a //go:linkname, is itself reported.
//
// Main packages are roots, never findings, and a package whose name ends
// in "test" (simtest, kvtest) is test code, exempt like a _test.go file.
// A directive on a function another root reaches anyway is reported, so
// directives cannot outlive the need for them, and so is one whose reason
// is not one of unreachedReasons.
func Unreached() *Analyzer {
	return &Analyzer{
		Name:   "unreached",
		Doc:    "flags non-test functions no main, init or declared library entry point reaches",
		Run:    func(*Pass) {},
		Finish: unreachedFinish,
	}
}

func unreachedFinish(g *GlobalPass) {
	byTypes := map[*types.Package]*Package{}
	for _, p := range g.Pkgs {
		byTypes[p.Types] = p
	}
	type funcDecl struct {
		decl *ast.FuncDecl
		pkg  *Package
	}
	decls := map[*types.Func]funcDecl{}
	methods := map[string][]*types.Func{} // concrete module methods by name
	var order []*types.Func               // declaration order, for reporting
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
					if d.Recv != nil {
						methods[fn.Name()] = append(methods[fn.Name()], fn)
					}
					if c := unreachedDirective(d.Doc); c != nil {
						attached[c] = true
						directive[fn] = c.Pos()
						if !hasUnreachedReason(c.Text) {
							g.Reportf(c.Pos(), "//wls:nolint unreached must give its reason as \"item N: …\", \"library-only: §x, TestName\", \"test hook: TestName\" or \"benchmark: …\"")
						}
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
					if !attached[c] && isUnreachedDirective(c.Text) {
						g.Reportf(c.Pos(), "//wls:nolint unreached belongs in the doc comment of the function it roots")
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

	// names reaches every function a node names; a method named through
	// an interface stands for every module method of its name. Only
	// module functions have a body to walk.
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
				for _, m := range methods[fn.Name()] {
					reach(m)
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

// resultMethods reaches the exported methods of every module type fn
// returns: a declared entry point hands its results to a caller outside
// the binaries, which may call any of them.
func resultMethods(fn *types.Func, reach func(*types.Func)) {
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
			if m := named.Method(j); m.Exported() {
				reach(m)
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
