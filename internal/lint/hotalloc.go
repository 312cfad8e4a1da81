package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc reports heap-allocation sites on the request hot path.
//
// A function is a hot-path root when its doc comment carries a
// //wls:hotpath directive; the hot set is the transitive closure of the
// roots over module-internal static calls, propagated cross-package
// through hotallocFacts. Inside hot functions the analyzer flags the
// allocation idioms that show up in request-path profiles:
//
//   - &T{...} composite literals and slice/map literals
//   - make and new
//   - append (may grow)
//   - interface boxing: passing a concrete value where a parameter or
//     conversion expects an interface
//   - string <-> []byte / []rune conversions (copy + alloc)
//   - fmt.* calls (format state, boxing, and result all allocate)
//   - function literals (closure allocation)
//
// Types whose instances are recycled through a sync.Pool carry a
// //wls:pooled directive on their declaration. Two of the idioms above
// escalate for pooled objects, because beyond the allocation they are
// use-after-release hazards: boxing a pooled object into an interface
// (the interface value may outlive the request and observe the object
// after recycling) and a closure capturing a pooled object (same escape,
// via the environment). Both report a distinct "pooled" message so the
// baseline tracks them separately from plain boxing/closure findings.
//
// Idioms the gc compiler is known to perform without allocating are not
// reported: boxing a pointer-shaped or zero-size value into a non-pooled
// interface (the data word holds it directly), and a []byte-to-string
// conversion used only as a map-read key, an == / != operand, or a
// switch tag (the temporary never outlives the operation). Map writes
// m[string(b)] = v still allocate and are still flagged.
//
// Not every finding is a real heap escape — the compiler stack-allocates
// plenty of these — so hotalloc is the one analyzer wired to a baseline:
// existing debt is recorded in hotalloc_baseline.json and the ratchet
// test only lets the count go down. Diagnostic messages deliberately
// contain no line numbers, so baselined findings survive unrelated edits
// to the same file.
//
// Calls through function values and interfaces don't propagate hotness
// (no static callee); annotate the concrete implementation instead.
//
// A hot function may call one that runs rarely by construction — the
// rollback after a no vote, the checkpoint a log takes once per megabyte.
// //wls:coldpath <why> in that function's doc comment cuts the closure
// there: its sites are not reported and its calls are not followed.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "flags allocation sites inside //wls:hotpath functions and their transitive callees",
	}
	a.Run = hotAllocRun
	a.Finish = hotAllocFinish
	return a
}

// AllocSite is one allocation inside a function body.
type AllocSite struct {
	Pos  token.Pos
	What string // human-readable description, no positions (baseline-stable)
}

// hotallocFact summarizes one module function for the hot-closure walk.
type hotallocFact struct {
	Hot     bool // carries a //wls:hotpath annotation
	Cold    bool // carries a //wls:coldpath annotation
	Sites   []AllocSite
	Callees []*types.Func // module-internal static callees, in source order
}

func (*hotallocFact) AFact() {}

// pooledFact marks a named type whose instances are pool-recycled
// (//wls:pooled on the declaration).
type pooledFact struct{}

func (*pooledFact) AFact() {}

func hotAllocRun(pass *Pass) {
	info := pass.Pkg.Info

	// First pass: collect //wls:pooled type annotations so the allocation
	// walk below can recognize pooled objects defined in this package (ones
	// from imported packages already have facts: dependency order).
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declPooled := hasPooledDoc(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !declPooled && !hasPooledDoc(ts.Doc) {
					continue
				}
				if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
					pass.ExportObjectFact(tn, &pooledFact{})
				}
			}
		}
	}
	// pooled reports whether t (or the type it points to) carries a
	// //wls:pooled annotation.
	pooled := func(t types.Type) bool {
		if t == nil {
			return false
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		return pass.ImportObjectFact(named.Obj(), &pooledFact{})
	}

	for _, f := range pass.Pkg.Files {
		// Any //wls:hotpath comment must be part of a function's doc
		// comment, and any //wls:pooled comment part of a type
		// declaration's; anywhere else they silently annotate nothing.
		inDoc := map[*ast.Comment]bool{}
		inTypeDoc := map[*ast.Comment]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Doc != nil {
					for _, c := range d.Doc.List {
						inDoc[c] = true
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				if d.Doc != nil {
					for _, c := range d.Doc.List {
						inTypeDoc[c] = true
					}
				}
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Doc != nil {
						for _, c := range ts.Doc.List {
							inTypeDoc[c] = true
						}
					}
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//wls:hotpath") && !inDoc[c] {
					pass.Reportf(c.Pos(), "//wls:hotpath must appear in a function's doc comment to mark a hot-path root")
				}
				if strings.HasPrefix(c.Text, "//wls:coldpath") && !inDoc[c] {
					pass.Reportf(c.Pos(), "//wls:coldpath must appear in a function's doc comment to cut the hot closure")
				}
				if strings.HasPrefix(c.Text, "//wls:pooled") && !inTypeDoc[c] {
					pass.Reportf(c.Pos(), "//wls:pooled must appear in a type declaration's doc comment to mark a pooled type")
				}
			}
		}

		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fact := &hotallocFact{Hot: hasFuncDirective(fd, "//wls:hotpath"), Cold: hasFuncDirective(fd, "//wls:coldpath")}
			collectAllocs(info, fd.Body, fact, pooled)
			seen := map[*types.Func]bool{}
			walkSkippingFuncLits(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if callee := moduleFunc(pass.Pkg.Module, calleeObject(info, call)); callee != nil && !seen[callee] {
					seen[callee] = true
					fact.Callees = append(fact.Callees, callee)
				}
			})
			if fact.Hot || len(fact.Sites) > 0 || len(fact.Callees) > 0 {
				pass.ExportObjectFact(fn, fact)
			}
		}
	}
}

func hasFuncDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

func hasPooledDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//wls:pooled") {
			return true
		}
	}
	return false
}

// capturedPooled returns the rendered type of a pooled variable the
// function literal captures from its environment ("" when none): an
// identifier used inside the literal but declared outside it whose type is
// pooled. Such a closure is more than an allocation — its environment may
// outlive the request and observe the pooled object after recycling.
func capturedPooled(info *types.Info, lit *ast.FuncLit, pooled func(types.Type) bool, short func(types.Type) string) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		vr, ok := info.Uses[id].(*types.Var)
		if !ok || vr.IsField() {
			return true
		}
		// Declared outside the literal = captured (parameters and locals of
		// the literal itself sit inside its extent).
		if vr.Pos() >= lit.Pos() && vr.Pos() <= lit.End() {
			return true
		}
		if pooled(vr.Type()) {
			found = short(vr.Type())
			return false
		}
		return true
	})
	return found
}

// collectAllocs appends every allocation site in body (excluding nested
// function literals, which are themselves sites) to fact.Sites.
func collectAllocs(info *types.Info, body *ast.BlockStmt, fact *hotallocFact, pooled func(types.Type) bool) {
	short := func(t types.Type) string {
		return types.TypeString(t, func(p *types.Package) string { return p.Name() })
	}
	freeConv := freeConvs(info, body)
	// Composite literals reported through their enclosing &x form get the
	// bare literal suppressed so each site reports once.
	handledLit := map[*ast.CompositeLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if cap := capturedPooled(info, n, pooled, short); cap != "" {
				fact.Sites = append(fact.Sites, AllocSite{Pos: n.Pos(),
					What: "closure captures pooled " + cap + " (environment may retain it past pool release)"})
			} else {
				fact.Sites = append(fact.Sites, AllocSite{Pos: n.Pos(), What: "function literal (closure allocation)"})
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					handledLit[cl] = true
					if tv, ok := info.Types[cl]; ok && tv.Type != nil {
						fact.Sites = append(fact.Sites, AllocSite{Pos: n.Pos(), What: "&" + short(tv.Type) + "{...} composite literal"})
					}
				}
			}
		case *ast.CompositeLit:
			if handledLit[n] {
				return true
			}
			tv, ok := info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				fact.Sites = append(fact.Sites, AllocSite{Pos: n.Pos(), What: short(tv.Type) + "{...} composite literal"})
			}
		case *ast.CallExpr:
			allocsFromCall(info, n, short, fact, pooled, freeConv)
		}
		return true
	})
}

// freeConvs returns the []byte-to-string conversions in body that the
// compiler performs without allocating: a conversion used directly as a
// map-read key (m[string(b)]), as an operand of == or !=, or as a switch
// tag. The temporary string never outlives the operation, so gc elides
// the copy. Map writes keep their key alive and still allocate, so
// assignment targets are excluded.
func freeConvs(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	free := map[*ast.CallExpr]bool{}
	conv := func(e ast.Expr) *ast.CallExpr {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return nil
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() || !isString(tv.Type) {
			return nil
		}
		srcTV, ok := info.Types[call.Args[0]]
		if !ok || srcTV.Type == nil || !isByteSlice(srcTV.Type) {
			return nil
		}
		return call
	}
	mark := func(e ast.Expr) {
		if c := conv(e); c != nil {
			free[c] = true
		}
	}
	written := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				written[ast.Unparen(l)] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if written[n] {
				return true
			}
			if xtv, ok := info.Types[n.X]; ok && xtv.Type != nil {
				if _, isMap := xtv.Type.Underlying().(*types.Map); isMap {
					mark(n.Index)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				mark(n.X)
				mark(n.Y)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				mark(n.Tag)
			}
		}
		return true
	})
	return free
}

// boxingIsFree reports whether converting a value of type t to an
// interface allocates nothing: pointer-shaped values (pointers, channels,
// maps, funcs, unsafe.Pointer) are stored directly in the interface data
// word, and zero-size values share the runtime's zerobase.
func boxingIsFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return true
		}
	}
	return isZeroSize(t)
}

func isZeroSize(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !isZeroSize(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || isZeroSize(u.Elem())
	}
	return false
}

// allocsFromCall classifies one call expression: builtin allocators,
// conversions, fmt calls, and interface boxing at argument positions.
func allocsFromCall(info *types.Info, call *ast.CallExpr, short func(types.Type) string, fact *hotallocFact, pooled func(types.Type) bool, freeConv map[*ast.CallExpr]bool) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				what := b.Name()
				if tv, ok := info.Types[call]; ok && tv.Type != nil {
					what += " of " + short(tv.Type)
				}
				fact.Sites = append(fact.Sites, AllocSite{Pos: call.Pos(), What: what})
			case "append":
				fact.Sites = append(fact.Sites, AllocSite{Pos: call.Pos(), What: "append (may grow backing array)"})
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		srcTV, ok := info.Types[call.Args[0]]
		if !ok || srcTV.Type == nil {
			return
		}
		src := srcTV.Type
		if isStringBytesConv(dst, src) {
			if !freeConv[call] {
				fact.Sites = append(fact.Sites, AllocSite{Pos: call.Pos(),
					What: short(src) + " to " + short(dst) + " conversion (copies)"})
			}
		} else if types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) && !isUntypedNil(srcTV) {
			if pooled(src) {
				// Pooled escalation is about retention, not allocation, so
				// it fires even for allocation-free pointer boxing.
				fact.Sites = append(fact.Sites, AllocSite{Pos: call.Pos(),
					What: "boxing pooled " + short(src) + " into " + short(dst) + " (interface may retain it past pool release)"})
			} else if !boxingIsFree(src) {
				fact.Sites = append(fact.Sites, AllocSite{Pos: call.Pos(),
					What: "boxing " + short(src) + " into " + short(dst)})
			}
		}
		return
	}

	// fmt calls: one site for the whole call; the variadic boxing is part
	// of the same problem, so argument boxing is not double-reported.
	callee := calleeObject(info, call)
	if pkgPathOf(callee) == "fmt" {
		fact.Sites = append(fact.Sites, AllocSite{Pos: call.Pos(), What: "call to fmt." + callee.Name()})
		return
	}

	// Interface boxing at argument positions.
	funTV, ok := info.Types[call.Fun]
	if !ok || funTV.Type == nil {
		return
	}
	sig, ok := funTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil {
		return
	}
	// Ellipsis call (f(xs...)) passes a slice through unchanged.
	if call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			break
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		argTV, ok := info.Types[arg]
		if !ok || argTV.Type == nil || isUntypedNil(argTV) {
			continue
		}
		if types.IsInterface(argTV.Type.Underlying()) {
			continue
		}
		label := "a function"
		if callee != nil {
			if fn, ok := callee.(*types.Func); ok {
				label = funcLabel(fn)
			} else {
				label = callee.Name()
			}
		}
		// sync.Pool.Put IS the release: handing a pooled object back to its
		// pool is the mechanism, not an escape.
		if pooled(argTV.Type) && pkgPathOf(callee) != "sync" {
			fact.Sites = append(fact.Sites, AllocSite{Pos: arg.Pos(),
				What: "boxing pooled " + short(argTV.Type) + " into " + short(pt) + " passed to " + label + " (callee may retain it past pool release)"})
		} else if !boxingIsFree(argTV.Type) {
			fact.Sites = append(fact.Sites, AllocSite{Pos: arg.Pos(),
				What: "boxing " + short(argTV.Type) + " into " + short(pt) + " passed to " + label})
		}
	}
}

func isStringBytesConv(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isUntypedNil(tv types.TypeAndValue) bool {
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func hotAllocFinish(g *GlobalPass) {
	facts := map[*types.Func]*hotallocFact{}
	var order []*types.Func
	var roots []*types.Func
	for _, of := range g.AllObjectFacts() {
		fn, ok := of.Object.(*types.Func)
		if !ok {
			continue
		}
		fact, ok := of.Fact.(*hotallocFact)
		if !ok {
			continue
		}
		facts[fn] = fact
		order = append(order, fn)
		if fact.Hot {
			roots = append(roots, fn)
		}
	}

	// Hot closure: BFS from annotated roots over static module calls.
	hot := map[*types.Func]bool{}
	queue := append([]*types.Func{}, roots...)
	for _, fn := range queue {
		hot[fn] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range facts[fn].Callees {
			if !hot[callee] {
				if f, known := facts[callee]; known && !f.Cold {
					hot[callee] = true
					queue = append(queue, callee)
				}
			}
		}
	}

	for _, fn := range order {
		if !hot[fn] {
			continue
		}
		for _, site := range facts[fn].Sites {
			g.Reportf(site.Pos, "hot-path allocation in %s: %s", funcLabel(fn), site.What)
		}
	}
}
