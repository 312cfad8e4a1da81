package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHeld reports blocking operations — channel sends and receives,
// selects without a default, Clock.Sleep/time.Sleep, transport calls,
// WaitGroup.Wait — performed while a sync.Mutex/RWMutex is held. Holding
// a lock across a blocking point is the classic cluster deadlock: the
// goroutine that would unblock the operation needs the same lock.
//
// The analysis is a source-order approximation, not a CFG: Lock/Unlock
// pairs are tracked in the order they appear in the function body, a
// deferred Unlock keeps the lock held to the end of the function, and
// function literals are analyzed independently (their bodies run on their
// own goroutine/schedule). Use //wls:nolint lockheld -- <reason> for
// deliberate exceptions.
//
// Blocking is interprocedural: every module function that may block —
// directly or through its callees — exports a blocksFact, so a call to
// it while a lock is held is flagged in any package, with the reason
// chain ("call to jms.Broker.deliver (may block: transport.Call)") in
// the message.
func LockHeld() *Analyzer {
	a := &Analyzer{
		Name: "lockheld",
		Doc:  "flags blocking operations while a sync mutex is held (deadlock hazard)",
	}
	a.Run = func(pass *Pass) {
		local := blockSummaries(pass)
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				fd, ok := n.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					return true
				}
				analyzeLockBody(pass, fd.Body, local)
				return false
			})
		}
	}
	return a
}

// blocksFact marks a module function that may block; Why names the root
// blocking operation (possibly through a short call chain).
type blocksFact struct {
	Why string
}

func (*blocksFact) AFact() {}

// blockSummaries computes which functions of the current package may
// block, exports blocksFacts for them, and returns the local summary map
// used by this package's own lock walks.
func blockSummaries(pass *Pass) map[*types.Func]string {
	info := pass.Pkg.Info
	type summary struct {
		why     string
		callees []*types.Func
	}
	summaries := map[*types.Func]*summary{}
	var order []*types.Func

	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := &summary{}

			// Send/receive operations that are the comm clause of a
			// select belong to the select's blocking decision (a select
			// with a default never blocks), so they are not counted as
			// direct blocking ops themselves.
			commOp := map[ast.Node]bool{}
			walkSkippingFuncLits(fd.Body, func(n ast.Node) {
				sel, ok := n.(*ast.SelectStmt)
				if !ok {
					return
				}
				for _, c := range sel.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						ast.Inspect(cc.Comm, func(m ast.Node) bool {
							if m != nil {
								commOp[m] = true
							}
							return true
						})
					}
				}
			})

			walkSkippingFuncLits(fd.Body, func(n ast.Node) {
				if sum.why != "" {
					return
				}
				switch n := n.(type) {
				case *ast.SendStmt:
					if !commOp[n] {
						sum.why = "channel send"
					}
				case *ast.UnaryExpr:
					if n.Op == token.ARROW && !commOp[n] {
						sum.why = "channel receive"
					}
				case *ast.SelectStmt:
					hasDefault := false
					for _, c := range n.Body.List {
						if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
							hasDefault = true
						}
					}
					if !hasDefault {
						sum.why = "select"
					}
				case *ast.CallExpr:
					if label, ok := knownBlockingCall(info, n); ok {
						sum.why = label
					} else if callee := moduleFunc(pass.Pkg.Module, calleeObject(info, n)); callee != nil {
						sum.callees = append(sum.callees, callee)
					}
				}
			})
			summaries[fn] = sum
			order = append(order, fn)
		}
	}

	// Fixpoint over the in-package call graph; imports resolve through
	// already-exported facts.
	lookup := func(fn *types.Func) (string, bool) {
		if sum, ok := summaries[fn]; ok {
			return sum.why, sum.why != ""
		}
		var fact blocksFact
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Why, true
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			sum := summaries[fn]
			if sum.why != "" {
				continue
			}
			for _, callee := range sum.callees {
				if why, ok := lookup(callee); ok {
					sum.why = funcLabel(callee) + " → " + why
					changed = true
					break
				}
			}
		}
	}

	local := map[*types.Func]string{}
	for _, fn := range order {
		if why := summaries[fn].why; why != "" {
			local[fn] = why
			pass.ExportObjectFact(fn, &blocksFact{Why: why})
		}
	}
	return local
}

// analyzeLockBody runs the source-order lock walk on one function body,
// then recurses into any function literals it contains with fresh state.
func analyzeLockBody(pass *Pass, body *ast.BlockStmt, local map[*types.Func]string) {
	s := &lockWalk{pass: pass, held: map[string]token.Pos{}, local: local}
	s.stmts(body.List)
	for _, lit := range s.lits {
		analyzeLockBody(pass, lit.Body, local)
	}
}

type lockWalk struct {
	pass  *Pass
	held  map[string]token.Pos   // mutex expr (rendered) -> Lock() position
	lits  []*ast.FuncLit         // literals to analyze independently
	local map[*types.Func]string // this package's may-block summaries
}

func (s *lockWalk) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *lockWalk) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if mutex, op, ok := s.mutexOp(call); ok {
				switch op {
				case "Lock", "RLock", "TryLock", "TryRLock":
					s.held[mutex] = call.Pos()
				case "Unlock", "RUnlock":
					delete(s.held, mutex)
				}
				return
			}
		}
		s.expr(st.X)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return, so the lock stays held for
		// the rest of the body — exactly what the walk's "never
		// released" state models. Deferred blocking calls run after the
		// body, outside this walk's scope.
		for _, arg := range st.Call.Args {
			s.expr(arg)
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.lits = append(s.lits, lit)
		}
	case *ast.GoStmt:
		for _, arg := range st.Call.Args {
			s.expr(arg)
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.lits = append(s.lits, lit)
		}
	case *ast.SendStmt:
		s.blockingOp(st.Pos(), "channel send")
		s.expr(st.Chan)
		s.expr(st.Value)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e)
		}
		for _, e := range st.Lhs {
			s.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.expr(e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e)
		}
	case *ast.IncDecStmt:
		s.expr(st.X)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.expr(st.Cond)
		s.stmts(st.Body.List)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.expr(st.Cond)
		}
		s.stmts(st.Body.List)
		if st.Post != nil {
			s.stmt(st.Post)
		}
	case *ast.RangeStmt:
		s.expr(st.X)
		s.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.expr(e)
				}
				s.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			s.blockingOp(st.Pos(), "select")
		}
		// Case bodies execute after the (possibly flagged) wait; the
		// comm statements themselves are part of the select and not
		// re-flagged.
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		s.stmts(st.List)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	}
}

// expr scans an expression for blocking operations, skipping function
// literals (collected for independent analysis).
func (s *lockWalk) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.lits = append(s.lits, n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.blockingOp(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if label, ok := s.blockingCall(n); ok {
				s.blockingOp(n.Pos(), label)
			}
		}
		return true
	})
}

// mutexOp reports whether call is a sync.Mutex/RWMutex lock-state method
// call, returning the rendered mutex expression and the method name.
func (s *lockWalk) mutexOp(call *ast.CallExpr) (mutex, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	obj := calleeObject(s.pass.Pkg.Info, call)
	if pkgPathOf(obj) != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// blockingCall reports whether call is a known blocking operation or a
// call into a module function that may block (via its blocksFact).
func (s *lockWalk) blockingCall(call *ast.CallExpr) (string, bool) {
	if label, ok := knownBlockingCall(s.pass.Pkg.Info, call); ok {
		return label, true
	}
	callee := moduleFunc(s.pass.Pkg.Module, calleeObject(s.pass.Pkg.Info, call))
	if callee == nil {
		return "", false
	}
	if why, ok := s.local[callee]; ok {
		return "call to " + funcLabel(callee) + " (may block: " + why + ")", true
	}
	var fact blocksFact
	if s.pass.ImportObjectFact(callee, &fact) {
		return "call to " + funcLabel(callee) + " (may block: " + fact.Why + ")", true
	}
	return "", false
}

// knownBlockingCall reports whether call is one of the primitive blocking
// operations the analyzer recognizes by name.
func knownBlockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := calleeObject(info, call)
	if obj == nil {
		return "", false
	}
	switch pkgPathOf(obj) {
	case "time":
		if obj.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "wls/internal/vclock":
		if obj.Name() == "Sleep" {
			return "Clock.Sleep", true
		}
	case "wls/internal/transport":
		if obj.Name() == "Call" {
			return "transport.Call", true
		}
	case "sync":
		// WaitGroup.Wait blocks; Cond.Wait is *supposed* to hold the
		// lock, so it is exempt.
		if obj.Name() == "Wait" && receiverNamed(obj) == "WaitGroup" {
			return "WaitGroup.Wait", true
		}
	}
	return "", false
}

// receiverNamed returns the name of a method's receiver type ("" for
// non-methods), looking through pointers.
func receiverNamed(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// blockingOp records a diagnostic for every lock currently held.
func (s *lockWalk) blockingOp(pos token.Pos, what string) {
	for mutex, lockPos := range s.held {
		lp := s.pass.Fset.Position(lockPos)
		s.pass.Reportf(pos,
			"%s while %s is locked (Lock at line %d) risks deadlock; release the lock before blocking",
			what, mutex, lp.Line)
	}
}
