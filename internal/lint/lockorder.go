package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the repo-wide mutex acquisition-order graph and reports
// cycles as potential deadlocks.
//
// Locks are grouped into classes by declaration site — "pkg.Type.field"
// for a struct-field mutex, "pkg.var" for a package-level one — because a
// static analysis cannot tell instances apart. Within one function the
// source-order lock walk (see lockWalk) tracks which classes are held
// when another Lock/RLock happens (a direct A→B edge); at every call site
// the callee's summary fact supplies the classes it may take
// transitively, so edges cross function and package boundaries (the
// go/analysis-style facts layer). A cycle A→…→A in the resulting graph
// means two goroutines can take the same classes in opposite orders — the
// classic cluster deadlock.
//
// Intended hierarchies are asserted with
//
//	//wls:lockorder A<B
//
// meaning A is (always) acquired before B. An observed B→A edge then
// fails the build even when no full cycle exists yet, and an assertion
// naming a class the analysis never saw is itself reported, so stale
// assertions cannot linger.
//
// Same-class edges (A while holding A) are deliberately not reported:
// distinct instances of one class (two shards, two sessions) routinely
// nest, and instance identity is invisible statically.
func LockOrder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "flags cycles in the cross-package mutex acquisition graph (potential deadlock)",
	}
	a.Run = lockOrderRun
	a.Finish = lockOrderFinish
	return a
}

// lockOrderEdge is one observed "B acquired while A held" pair.
type lockOrderEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee label when the acquisition is interprocedural
}

// lockOrderAssertion is one parsed //wls:lockorder A<B directive.
type lockOrderAssertion struct {
	before, after string
	pos           token.Pos
}

// lockOrderState accumulates the graph across packages.
type lockOrderState struct {
	edges      map[[2]string]lockOrderEdge // first observation per (from,to)
	edgeOrder  [][2]string
	classes    map[string]bool // every class ever acquired
	assertions []lockOrderAssertion
}

func newLockOrderState() any {
	return &lockOrderState{edges: map[[2]string]lockOrderEdge{}, classes: map[string]bool{}}
}

// parseLockOrderAssertion splits the payload of a //wls:lockorder
// directive ("A<B", whitespace-tolerant) into its two class names.
func parseLockOrderAssertion(rest string) (before, after string, err error) {
	b, a, ok := strings.Cut(rest, "<")
	b, a = strings.TrimSpace(b), strings.TrimSpace(a)
	if !ok || b == "" || a == "" {
		return "", "", fmt.Errorf("missing %q separator between two lock classes", "<")
	}
	return b, a, nil
}

func lockOrderRun(pass *Pass) {
	st := pass.State(newLockOrderState).(*lockOrderState)

	// Assertions can sit in any file of any package.
	for _, f := range pass.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//wls:lockorder")
				if !ok {
					continue
				}
				before, after, err := parseLockOrderAssertion(strings.TrimSpace(text))
				if err != nil {
					continue // reported by the directive parser
				}
				st.assertions = append(st.assertions,
					lockOrderAssertion{before: before, after: after, pos: c.Pos()})
			}
		}
	}

	sums := summarize(pass, summaryRule{
		direct: func(body *ast.BlockStmt) (sum summaryFact, callees []*types.Func) {
			w := &lockWalk{pass: pass, summary: true}
			w.acquire = func(l heldLock) {
				if l.class != "" {
					sum.Classes = append(sum.Classes, l.class)
				}
			}
			w.call = func(_ *ast.CallExpr, callee *types.Func) {
				if callee != nil {
					callees = append(callees, callee)
				}
			}
			w.walk(body)
			sum.Classes = dedupSorted(sum.Classes)
			return sum, callees
		},
		extend: func(s *summaryFact, _ *types.Func, cs summaryFact) bool {
			merged := dedupSorted(append(s.Classes, cs.Classes...))
			grew := len(merged) != len(s.Classes)
			s.Classes = merged
			return grew
		},
	})

	// The edge walk: every class held when another is acquired, directly
	// or through a callee's summary.
	w := &lockWalk{pass: pass}
	w.acquire = func(l heldLock) {
		if l.class != "" {
			st.classes[l.class] = true
			st.edgesTo(w.held, l.class, l.pos, "")
		}
	}
	w.call = func(call *ast.CallExpr, callee *types.Func) {
		if callee != nil {
			cs, _ := sums.of(callee)
			for _, class := range cs.Classes {
				st.edgesTo(w.held, class, call.Pos(), funcLabel(callee))
			}
		}
	}
	for _, fd := range sums.decls {
		w.run(fd.Body)
	}
}

// edgesTo records an edge to class to from the class of every held lock,
// keeping the first observation of each.
func (st *lockOrderState) edgesTo(held []heldLock, to string, pos token.Pos, via string) {
	for _, h := range held {
		if h.class == "" || h.class == to {
			continue // unclassed, or a self-edge: instance identity is invisible; see analyzer doc
		}
		key := [2]string{h.class, to}
		if _, seen := st.edges[key]; !seen {
			st.edges[key] = lockOrderEdge{from: h.class, to: to, pos: pos, via: via}
			st.edgeOrder = append(st.edgeOrder, key)
		}
	}
}

func lockOrderFinish(g *GlobalPass) {
	st := g.State(newLockOrderState).(*lockOrderState)

	// Assertion checks first: contradictions and stale names.
	for _, as := range st.assertions {
		for _, class := range []string{as.before, as.after} {
			if !st.classes[class] {
				g.Reportf(as.pos,
					"//wls:lockorder assertion names lock class %q, which is never acquired anywhere in the module",
					class)
			}
		}
		if edge, ok := st.edges[[2]string{as.after, as.before}]; ok {
			g.Reportf(edge.pos,
				"lock order violation: %s acquired while %s is held%s, but //wls:lockorder asserts %s < %s",
				edge.to, edge.from, viaSuffix(edge.via), as.before, as.after)
		}
	}

	// Cycle detection over the class graph.
	adj := map[string][]string{}
	for _, key := range st.edgeOrder {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	for _, cycle := range lockOrderCycles(adj) {
		var steps []string
		for i := range cycle {
			from, to := cycle[i], cycle[(i+1)%len(cycle)]
			edge := st.edges[[2]string{from, to}]
			p := g.Fset.Position(edge.pos)
			steps = append(steps, fmt.Sprintf("%s→%s%s at %s:%d",
				from, to, viaSuffix(edge.via), p.Filename, p.Line))
		}
		first := st.edges[[2]string{cycle[0], cycle[1%len(cycle)]}]
		g.Reportf(first.pos,
			"potential deadlock: lock-order cycle %s (%s); break the cycle or document the hierarchy with //wls:lockorder",
			strings.Join(append(append([]string{}, cycle...), cycle[0]), " → "),
			strings.Join(steps, "; "))
	}
}

// lockOrderCycles returns one representative cycle per strongly connected
// component with more than one node, deterministically: components are
// discovered in sorted node order and each cycle is a shortest loop from
// its smallest node.
func lockOrderCycles(adj map[string][]string) [][]string {
	nodes := make([]string, 0, len(adj))
	seen := map[string]bool{}
	addNode := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, succs := range adj {
		addNode(from)
		for _, to := range succs {
			addNode(to)
		}
	}
	sort.Strings(nodes)

	// Tarjan's SCC, iterative over sorted nodes for determinism.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wn := range adj[v] {
			if _, visited := index[wn]; !visited {
				strongconnect(wn)
				if low[wn] < low[v] {
					low[v] = low[wn]
				}
			} else if onStack[wn] && index[wn] < low[v] {
				low[v] = index[wn]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				wn := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[wn] = false
				comp = append(comp, wn)
				if wn == v {
					break
				}
			}
			if len(comp) > 1 {
				sort.Strings(comp)
				sccs = append(sccs, comp)
			}
		}
	}
	for _, n := range nodes {
		if _, visited := index[n]; !visited {
			strongconnect(n)
		}
	}

	var cycles [][]string
	for _, comp := range sccs {
		inComp := map[string]bool{}
		for _, n := range comp {
			inComp[n] = true
		}
		start := comp[0]
		// BFS from start within the component; the first edge back to
		// start closes the shortest representative cycle.
		parent := map[string]string{}
		queue := []string{start}
		visited := map[string]bool{start: true}
		var closer string
		for len(queue) > 0 && closer == "" {
			v := queue[0]
			queue = queue[1:]
			for _, wn := range adj[v] {
				if !inComp[wn] {
					continue
				}
				if wn == start {
					closer = v
					break
				}
				if !visited[wn] {
					visited[wn] = true
					parent[wn] = v
					queue = append(queue, wn)
				}
			}
		}
		if closer == "" {
			continue // unreachable for a true SCC
		}
		var rev []string
		for v := closer; v != start; v = parent[v] {
			rev = append(rev, v)
		}
		cycle := []string{start}
		for i := len(rev) - 1; i >= 0; i-- {
			cycle = append(cycle, rev[i])
		}
		cycles = append(cycles, cycle)
	}
	return cycles
}

func viaSuffix(via string) string {
	if via == "" {
		return ""
	}
	return " (via call to " + via + ")"
}

// lockClassOf maps a mutex expression to its declaration-site class:
// "pkg.Type.field" for struct fields, "pkg.var" for package-level
// variables, "pkg.Type" for a named type embedding the mutex. Local
// mutex variables have no stable class and return ok=false.
func lockClassOf(info *types.Info, x ast.Expr) (string, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		// recv.field
		if selx, ok := info.Selections[x]; ok {
			if fld, ok := selx.Obj().(*types.Var); ok && fld.IsField() {
				if owner := namedOf(selx.Recv()); owner != nil {
					return typeClass(owner) + "." + fld.Name(), true
				}
			}
		}
		// pkg.Var (qualified package-level mutex)
		if obj, ok := info.Uses[x.Sel]; ok {
			if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name(), true
			}
		}
	case *ast.Ident:
		obj := info.Uses[x]
		v, ok := obj.(*types.Var)
		if !ok {
			return "", false
		}
		if !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), true
		}
		// A variable of a named type with an embedded mutex (s.Lock()):
		// the type itself is the class.
		if named := namedOf(v.Type()); named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() != "sync" {
			return typeClass(named), true
		}
	}
	return "", false
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func typeClass(n *types.Named) string {
	pkg := ""
	if n.Obj().Pkg() != nil {
		pkg = n.Obj().Pkg().Name() + "."
	}
	return pkg + n.Obj().Name()
}

func dedupSorted(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	sort.Strings(in)
	out := in[:1]
	for _, s := range in[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}
