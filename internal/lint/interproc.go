package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The interprocedural engine behind lockheld, lockorder and goleak: one
// summary pass that gives every module function a fact, and one
// source-order lock walk that keeps the held set for the two lock
// analyzers.

// summaryFact is what the summary engine exports for a module function.
// Facts are namespaced per analyzer: lockheld and goleak fill Why (why the
// function may block, or never returns, with the call chain that gets
// there), lockorder fills Classes (the lock classes it may acquire,
// sorted).
type summaryFact struct {
	Why     string
	Classes []string
}

func (*summaryFact) AFact() {}

// summaryRule is what an analyzer plugs into the summary engine.
type summaryRule struct {
	// direct returns what a body does itself, and the module functions it
	// calls whose summaries can extend that.
	direct func(body *ast.BlockStmt) (summaryFact, []*types.Func)
	// extend folds callee's summary cs into s and reports whether s grew.
	extend func(s *summaryFact, callee *types.Func, cs summaryFact) bool
}

// chainWhy is the extend rule of the Why summaries: a function with no
// reason of its own takes its first callee's, chained by format (callee
// label, callee reason).
func chainWhy(format string) func(*summaryFact, *types.Func, summaryFact) bool {
	return func(s *summaryFact, callee *types.Func, cs summaryFact) bool {
		if s.Why != "" || cs.Why == "" {
			return false
		}
		s.Why = fmt.Sprintf(format, funcLabel(callee), cs.Why)
		return true
	}
}

// summaries is one analyzer's view of function summaries while it
// analyzes one package.
type summaries struct {
	pass  *Pass
	rule  summaryRule
	local map[*types.Func]*summaryFact
	// decls are the package's function declarations with a body, in
	// source order.
	decls []*ast.FuncDecl
}

// summarize summarizes every function the package declares with a body,
// runs the in-package fixpoint (callees in imported packages answer from
// the facts their package exported), and exports a fact for every
// function whose summary is not empty.
func summarize(pass *Pass, rule summaryRule) *summaries {
	s := &summaries{pass: pass, rule: rule, local: map[*types.Func]*summaryFact{}}
	var fns []*types.Func
	var callees [][]*types.Func
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s.decls = append(s.decls, fd)
			if fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				sum, calls := rule.direct(fd.Body)
				s.local[fn] = &sum
				fns, callees = append(fns, fn), append(callees, calls)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, fn := range fns {
			changed = s.fold(s.local[fn], callees[i]) || changed
		}
	}
	for _, fn := range fns {
		if sum := s.local[fn]; sum.Why != "" || len(sum.Classes) > 0 {
			pass.ExportObjectFact(fn, sum)
		}
	}
	return s
}

// fold extends sum by its callees' current summaries and reports whether
// it grew.
func (s *summaries) fold(sum *summaryFact, callees []*types.Func) bool {
	grew := false
	for _, callee := range callees {
		if cs, ok := s.of(callee); ok && s.rule.extend(sum, callee, cs) {
			grew = true
		}
	}
	return grew
}

// of returns fn's summary: this package's own, or the fact fn's package
// exported.
func (s *summaries) of(fn *types.Func) (summaryFact, bool) {
	if sum, ok := s.local[fn]; ok {
		return *sum, true
	}
	var fact summaryFact
	return fact, s.pass.ImportObjectFact(fn, &fact)
}

// body summarizes a body that is not a declaration — a function literal —
// against the package's summaries.
func (s *summaries) body(body *ast.BlockStmt) summaryFact {
	sum, callees := s.rule.direct(body)
	s.fold(&sum, callees)
	return sum
}

// heldLock is one entry of the lock walk's held set.
type heldLock struct {
	mutex string    // the mutex expression as written
	class string    // its lock class (see lockClassOf); "" for a local mutex
	pos   token.Pos // the Lock call
}

// lockWalk walks a function body in source order — a deliberate
// approximation of control flow — and keeps the set of mutexes held: a
// deferred Unlock keeps its lock held to the end of the body, and a block
// that cannot fall through (it ends in a return, a panic or an exit)
// leaves the held set as it was before it, so an Unlock on an early-return
// branch does not release the lock for the code after the branch. It calls
// back at every acquire, every blocking channel operation and every other
// call, with the module function the call reaches (nil if none); any
// callback may be nil.
//
// A function literal runs on its own schedule, so it is walked after its
// enclosing body with a fresh held set. The callee of a go statement runs
// on its own goroutine, so it is no call here; its function value and
// arguments are evaluated in place, as a deferred call's are. A select's
// comm clauses belong to the select: their sends and receives are not
// blocking operations of their own, but the calls in them are calls.
type lockWalk struct {
	pass     *Pass
	acquire  func(l heldLock)
	blocking func(pos token.Pos, what string)
	call     func(call *ast.CallExpr, callee *types.Func)
	// summary marks a summary walk, which ignores the held set: there a
	// deferred call counts where it is written, since it still runs
	// before the function returns.
	summary bool

	held   []heldLock
	lits   []*ast.FuncLit
	inComm bool
}

// run walks body, then each function literal in it, with a fresh held set
// for each.
func (w *lockWalk) run(body *ast.BlockStmt) {
	w.held, w.lits = nil, nil
	w.walk(body)
	lits := w.lits
	for _, lit := range lits {
		w.run(lit.Body)
	}
}

func (w *lockWalk) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.lits = append(w.lits, n)
			return false
		case *ast.BlockStmt:
			w.stmts(n.List)
			return false
		case *ast.CaseClause:
			for _, e := range n.List {
				w.walk(e)
			}
			w.stmts(n.Body)
			return false
		case *ast.DeferStmt:
			if w.summary {
				return true
			}
			w.callParts(n.Call)
			return false
		case *ast.GoStmt:
			w.callParts(n.Call)
			return false
		case *ast.SendStmt:
			w.block(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				hasDefault = hasDefault || c.(*ast.CommClause).Comm == nil
			}
			if !hasDefault {
				w.block(n.Pos(), "select")
			}
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					w.inComm = true
					w.walk(cc.Comm)
					w.inComm = false
				}
				w.stmts(cc.Body)
			}
			return false
		case *ast.CallExpr:
			if l, acquire, ok := mutexOp(w.pass.Pkg.Info, n); ok {
				if acquire {
					w.lock(l)
				} else {
					w.unlock(l.mutex)
				}
			} else if w.call != nil {
				info, module := w.pass.Pkg.Info, w.pass.Pkg.Module
				w.call(n, moduleFunc(module, calleeObject(info, n)))
			}
		}
		return true
	})
}

// stmts walks a statement list. When the list cannot fall through, the
// held set after it is the one from before it.
func (w *lockWalk) stmts(list []ast.Stmt) {
	held := append([]heldLock(nil), w.held...)
	for _, st := range list {
		w.walk(st)
	}
	if len(list) > 0 && terminates(list[len(list)-1]) {
		w.held = held
	}
}

// terminates reports whether st cannot fall through: a return, or a call
// that ends the goroutine (callTerminatesGoroutine).
func terminates(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		return ok && callTerminatesGoroutine(call)
	}
	return false
}

// callParts walks what a go or defer statement evaluates in place: the
// function value and the arguments, but not the call.
func (w *lockWalk) callParts(call *ast.CallExpr) {
	w.walk(call.Fun)
	for _, arg := range call.Args {
		w.walk(arg)
	}
}

func (w *lockWalk) block(pos token.Pos, what string) {
	if !w.inComm && w.blocking != nil {
		w.blocking(pos, what)
	}
}

func (w *lockWalk) lock(l heldLock) {
	if w.acquire != nil {
		w.acquire(l)
	}
	for i := range w.held {
		if w.held[i].mutex == l.mutex {
			w.held[i] = l
			return
		}
	}
	w.held = append(w.held, l)
}

func (w *lockWalk) unlock(mutex string) {
	for i, h := range w.held {
		if h.mutex == mutex {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// mutexOp reports whether call is a sync.Mutex/RWMutex lock-state method
// call: the lock it names, and whether it acquires or releases it.
func mutexOp(info *types.Info, call *ast.CallExpr) (l heldLock, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || pkgPathOf(calleeObject(info, call)) != "sync" {
		return l, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return l, false, false
	}
	class, _ := lockClassOf(info, sel.X)
	return heldLock{mutex: types.ExprString(sel.X), class: class, pos: call.Pos()}, acquire, true
}
