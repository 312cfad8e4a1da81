package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHeld reports blocking operations — channel sends and receives,
// selects without a default, Clock.Sleep/time.Sleep, transport and node
// calls, WaitGroup.Wait — performed while a sync.Mutex/RWMutex is held.
// Holding a lock across a blocking point is the classic cluster deadlock:
// the goroutine that would unblock the operation needs the same lock.
//
// The held set comes from the source-order lock walk (see lockWalk): a
// deferred Unlock keeps the lock held to the end of the function, and
// function literals and the callees of go statements run on their own
// schedule. Use //wls:nolint lockheld -- <reason> for deliberate
// exceptions.
//
// Blocking is interprocedural: every module function that may block —
// directly or through its callees — exports a summary fact, so a call to
// it while a lock is held is flagged in any package, with the reason
// chain ("call to jms.Broker.deliver (may block: transport.Call)") in
// the message.
func LockHeld() *Analyzer {
	a := &Analyzer{
		Name: "lockheld",
		Doc:  "flags blocking operations while a sync mutex is held (deadlock hazard)",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		sums := summarize(pass, summaryRule{
			direct: func(body *ast.BlockStmt) (sum summaryFact, callees []*types.Func) {
				first := func(_ token.Pos, what string) {
					if sum.Why == "" {
						sum.Why = what
					}
				}
				w := &lockWalk{pass: pass, summary: true, blocking: first}
				w.call = func(call *ast.CallExpr, callee *types.Func) {
					if what, ok := knownBlockingCall(info, call); ok {
						first(call.Pos(), what)
					} else if callee != nil {
						callees = append(callees, callee)
					}
				}
				w.walk(body)
				return sum, callees
			},
			extend: chainWhy("%s → %s"),
		})
		w := &lockWalk{pass: pass}
		w.blocking = func(pos token.Pos, what string) {
			for _, l := range w.held {
				lp := pass.Fset.Position(l.pos)
				pass.Reportf(pos,
					"%s while %s is locked (Lock at line %d) risks deadlock; release the lock before blocking",
					what, l.mutex, lp.Line)
			}
		}
		w.call = func(call *ast.CallExpr, callee *types.Func) {
			what, ok := knownBlockingCall(info, call)
			if !ok && callee != nil {
				if cs, _ := sums.of(callee); cs.Why != "" {
					what = "call to " + funcLabel(callee) + " (may block: " + cs.Why + ")"
				}
			}
			if what != "" {
				w.blocking(call.Pos(), what)
			}
		}
		for _, fd := range sums.decls {
			w.run(fd.Body)
		}
	}
	return a
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
	case "wls/internal/rmi":
		// The seam through which rmi reaches a fabric: an interface
		// method, so no summary can attach to it.
		if obj.Name() == "Call" && receiverNamed(obj) == "Node" {
			return "rmi.Node.Call", true
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
