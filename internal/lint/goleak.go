package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// GoLeak flags `go` statements that start a goroutine with no reachable
// termination path: the goroutine can never return, so it pins its stack
// and captured state for the life of the process — the slow-leak class of
// bug that drains a long-lived server.
//
// The analysis is deliberately conservative — it only reports goroutines
// whose body provably cannot terminate:
//
//   - an infinite `for` loop (no condition) with no escape: no return, no
//     break or goto leaving the loop, and no call that terminates the
//     goroutine (panic, runtime.Goexit, os.Exit, log.Fatal*);
//   - a zero-case `select {}`, which blocks forever by definition;
//   - a statement-level call to a function that itself never returns,
//     established transitively across packages through summary facts.
//
// Loops that block on channels, select on a done signal, or range over a
// channel are all assumed terminating (`for range ch` exits when the
// channel is closed), so the idiomatic worker patterns in transport and
// core never trip it. The price is missed leaks — a loop that selects but
// whose done channel is never closed passes — which is the right trade
// for a lint that gates every build.
func GoLeak() *Analyzer {
	a := &Analyzer{
		Name: "goleak",
		Doc:  "flags go statements whose goroutine has no termination path",
	}
	a.Run = goLeakRun
	return a
}

func goLeakRun(pass *Pass) {
	info := pass.Pkg.Info
	// A function never returns when its own body cannot, or when one of
	// its statement-level calls never does: a call in expression
	// position must return a value to its context.
	sums := summarize(pass, summaryRule{
		direct: func(body *ast.BlockStmt) (summaryFact, []*types.Func) {
			var callees []*types.Func
			for _, s := range body.List {
				if es, ok := s.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if callee := moduleFunc(pass.Pkg.Module, calleeObject(info, call)); callee != nil {
							callees = append(callees, callee)
						}
					}
				}
			}
			return summaryFact{Why: nonTermWhy(pass, body)}, callees
		},
		extend: chainWhy("calls %s, which never returns (%s)"),
	})

	// Inspect every go statement, including ones nested inside function
	// literals.
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				if why := sums.body(fun.Body).Why; why != "" {
					pass.Reportf(gs.Pos(), "goroutine never terminates: %s; give it a done/stop escape or bound the loop", why)
				}
			default:
				if callee := moduleFunc(pass.Pkg.Module, calleeObject(info, gs.Call)); callee != nil {
					if cs, _ := sums.of(callee); cs.Why != "" {
						pass.Reportf(gs.Pos(), "goroutine never terminates: %s never returns (%s); give it a done/stop escape or bound the loop",
							funcLabel(callee), cs.Why)
					}
				}
			}
			return true
		})
	}
}

// nonTermWhy reports why body provably never returns, or "" when it has a
// termination path. Only top-level shape is considered: an inescapable
// infinite for loop or a zero-case select reached unconditionally.
func nonTermWhy(pass *Pass, body *ast.BlockStmt) string {
	for _, s := range body.List {
		switch s := s.(type) {
		case *ast.ForStmt:
			if s.Cond == nil && !loopEscapes(s) {
				p := pass.Pkg.Fset.Position(s.Pos())
				return "infinite for loop with no break, return, or panic (" + p.Filename + ":" + strconv.Itoa(p.Line) + ")"
			}
		case *ast.SelectStmt:
			if len(s.Body.List) == 0 {
				p := pass.Pkg.Fset.Position(s.Pos())
				return "empty select blocks forever (" + p.Filename + ":" + strconv.Itoa(p.Line) + ")"
			}
		}
	}
	return ""
}

// loopEscapes reports whether an infinite for loop has any statement that
// can leave it (or end the goroutine): a return, a break/goto that exits
// the loop, or a terminating call like panic or log.Fatal. Nested
// function literals don't count — a return inside a closure returns from
// the closure.
func loopEscapes(loop *ast.ForStmt) bool {
	// Labels defined inside the loop: a labeled break/goto targeting one
	// of them stays inside.
	innerLabels := map[string]bool{}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			innerLabels[ls.Label.Name] = true
		}
		return true
	})

	escapes := false
	// depth counts enclosing breakable statements (for/range/select/
	// switch) between the node and this loop: a bare break with depth>0
	// exits the inner statement, not the loop.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil || escapes {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			escapes = true
			return
		case *ast.BranchStmt:
			switch n.Tok {
			case token.BREAK:
				if n.Label == nil {
					if depth == 0 {
						escapes = true
					}
				} else if !innerLabels[n.Label.Name] {
					escapes = true
				}
			case token.GOTO:
				if n.Label != nil && !innerLabels[n.Label.Name] {
					escapes = true
				}
			}
			return
		case *ast.CallExpr:
			if callTerminatesGoroutine(n) {
				escapes = true
				return
			}
		case *ast.ForStmt:
			if n.Init != nil {
				walk(n.Init, depth)
			}
			walk(n.Body, depth+1)
			return
		case *ast.RangeStmt:
			walk(n.Body, depth+1)
			return
		case *ast.SelectStmt:
			walk(n.Body, depth+1)
			return
		case *ast.SwitchStmt:
			walk(n.Body, depth+1)
			return
		case *ast.TypeSwitchStmt:
			walk(n.Body, depth+1)
			return
		}
		// Generic recursion preserving depth.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return true
			}
			walk(c, depth)
			return false
		})
	}
	walk(loop.Body, 0)
	return escapes
}

// callTerminatesGoroutine recognizes calls that end the goroutine (or the
// process) even though control never "returns": panic, runtime.Goexit,
// os.Exit, log.Fatal*.
func callTerminatesGoroutine(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "runtime.Goexit", "os.Exit":
			return true
		}
		return pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal")
	}
	return false
}
