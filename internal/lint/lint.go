// Package lint is a stdlib-only static-analysis suite (go/parser, go/ast,
// go/token, go/types — no x/tools) that enforces the determinism and
// concurrency invariants the reproduction depends on.
//
// It is a whole-program, cross-package engine: packages are analyzed in
// dependency order, analyzers export per-object facts (see Fact) from each
// package and import them when analyzing dependents, and an optional
// Finish phase runs once after every package for global reporting (cycle
// detection, reachability closures). lockheld, lockorder and goleak share
// one summary engine and, for the two lock analyzers, one lock walk (see
// interproc.go).
//
// The analyzers:
//
//   - walltime:  cluster logic must run on vclock.Clock, never directly on
//     the time package, or the deterministic failure simulations in
//     EXPERIMENTS.md silently stop being deterministic.
//   - lockheld:  a mutex held across a blocking operation (channel send or
//     receive, select, Clock.Sleep, transport or node call — directly or
//     via a call to a function that blocks, tracked interprocedurally
//     through facts) is a deadlock hazard in the cluster/lease/singleton
//     protocols.
//   - errdrop:   errors from the wire codec, the transport, the store, and
//     transaction-log writes carry recovery obligations; discarding one on
//     the floor breaks the crash-recovery story.
//   - afterloop: time.After / Clock.After inside a for loop allocates a
//     timer per iteration that is only reclaimed when it fires — a leak in
//     long-running heartbeat and retry loops.
//   - spanleak:  a trace span started and never Finished silently drops a
//     hop from the trace, breaking the trace-derived assertions
//     (ServersTouched, HopCount) the experiments rely on.
//   - lockorder: builds the repo-wide mutex acquisition-order graph
//     (interprocedural, via facts) and reports cycles as potential
//     deadlocks; //wls:lockorder A<B asserts an intended hierarchy.
//   - goleak:    flags go statements whose goroutine has no reachable
//     termination path (an inescapable infinite loop or empty select,
//     directly or through the functions it calls).
//   - unreached: flags a non-test function no binary reaches — from main,
//     init, package-level initializers, or an entry point declared with
//     //wls:nolint unreached -- <reason> — so code only tests call does
//     not pile up in the system packages; an unexported struct field no
//     non-test code reads; and an exported field of an exported struct no
//     non-test code writes, a setting only tests set.
//
// Request-path allocations are not a lint rule: the allocation gates in
// gate_test.go measure them (DESIGN.md "Determinism & lint rules").
//
// Diagnostics can be suppressed line-by-line with directives:
//
//	//wls:wallclock <reason>           – suppress walltime (reason required)
//	//wls:nolint <a>[,<b>] -- <reason> – suppress the named analyzers
//
// Two directives feed an analyzer instead of suppressing it:
//
//	//wls:lockorder A<B                    – assert that lock class A is acquired before B
//	//wls:nolint unreached -- <reason>     – in a doc comment: root the function, or keep the field (or every field of the struct)
//
// A suppressing directive covers matching diagnostics on its own line and,
// when it stands alone on a line, on the line directly below it.
//
// The suite is self-enforcing: internal/lint/repo_test.go runs every
// analyzer over the whole module, so `go test ./...` fails on new
// violations. The cmd/wlslint driver exposes the same checks on the
// command line (with a -json output mode).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one lint rule. Analyzers are stateless values: per-Run
// accumulation lives in the Pass/GlobalPass State scratch area, so one
// Analyzer instance may be reused across Runs.
type Analyzer struct {
	// Name is the rule's short identifier, used in output and in
	// //wls:nolint directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and reports findings through the pass.
	// Packages are visited in dependency order (imports before
	// importers), so facts exported for a package's objects are visible
	// when its dependents run.
	Run func(*Pass)
	// Finish, if non-nil, runs once after every package's Run: the place
	// for whole-program reporting over accumulated facts and state.
	Finish func(*GlobalPass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset     *token.FileSet
	Pkg      *Package
	analyzer *Analyzer
	facts    *factStore
	states   map[*Analyzer]any
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Default is the analyzer set cmd/wlslint and repo_test.go run.
func Default() []*Analyzer {
	return []*Analyzer{
		Walltime(), LockHeld(), ErrDrop(), AfterLoop(), SpanLeak(),
		LockOrder(), GoLeak(), Unreached(),
	}
}

// Run applies each analyzer to each package — in dependency order, so
// facts flow from imported packages to their importers — then runs each
// analyzer's Finish phase, and returns the surviving diagnostics
// (directive-suppressed ones removed), sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ordered := analysisOrder(pkgs)
	facts := newFactStore()
	states := map[*Analyzer]any{}
	for _, pkg := range ordered {
		for _, a := range analyzers {
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, analyzer: a,
				facts: facts, states: states, sink: &diags}
			a.Run(pass)
		}
	}
	var fset *token.FileSet
	if len(ordered) > 0 {
		fset = ordered[0].Fset
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		g := &GlobalPass{Fset: fset, Pkgs: ordered, analyzer: a,
			states: states, sink: &diags}
		a.Finish(g)
	}
	diags = applyDirectives(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// analysisOrder sorts packages topologically (imports first) so facts
// exported while analyzing a package exist before its dependents run.
// Only dependencies that are themselves in pkgs matter; external imports
// (the stdlib) are never analyzed. Ties preserve the incoming order,
// which the loader already makes deterministic.
func analysisOrder(pkgs []*Package) []*Package {
	byTypes := make(map[*types.Package]*Package, len(pkgs))
	for _, p := range pkgs {
		byTypes[p.Types] = p
	}
	ordered := make([]*Package, 0, len(pkgs))
	visited := map[*Package]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := byTypes[imp]; ok {
				visit(dep)
			}
		}
		ordered = append(ordered, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return ordered
}

// directive is one parsed //wls: comment.
type directive struct {
	analyzers map[string]bool
	reason    string
	pos       token.Position
	// lines the directive covers: its own line, plus the next line when
	// the comment stands alone.
	lines [2]int
}

// parseDirectives extracts //wls: directives from a file. Malformed
// directives (no reason, unknown kind) are reported as diagnostics so the
// escape hatch itself stays auditable.
func parseDirectives(fset *token.FileSet, f *ast.File, known map[string]bool, report func(Diagnostic)) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//wls:")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			kind, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
			rest = strings.TrimSpace(rest)
			d := directive{reason: rest, pos: pos, lines: [2]int{pos.Line, pos.Line + 1}}
			switch kind {
			case "wallclock":
				d.analyzers = map[string]bool{"walltime": true}
				if d.reason == "" {
					report(Diagnostic{Analyzer: "directive", Pos: pos,
						Message: "//wls:wallclock directive requires a reason (//wls:wallclock <why this must be real wall time>)"})
					continue
				}
			case "nolint":
				names, reason, hasReason := strings.Cut(rest, "--")
				d.reason = strings.TrimSpace(reason)
				d.analyzers = map[string]bool{}
				for _, n := range strings.Split(names, ",") {
					n = strings.TrimSpace(n)
					if n == "" {
						continue
					}
					if !known[n] {
						report(Diagnostic{Analyzer: "directive", Pos: pos,
							Message: fmt.Sprintf("//wls:nolint names unknown analyzer %q", n)})
					}
					d.analyzers[n] = true
				}
				if len(d.analyzers) == 0 || !hasReason || d.reason == "" {
					report(Diagnostic{Analyzer: "directive", Pos: pos,
						Message: "//wls:nolint directive requires analyzer names and a reason (//wls:nolint <name>[,<name>] -- <why>)"})
					continue
				}
			case "lockorder":
				// Assertion, not suppression: consumed by the lockorder
				// analyzer (see parseLockOrderAssertion). Validate the
				// shape here so a typo'd assertion is loud.
				if _, _, err := parseLockOrderAssertion(rest); err != nil {
					report(Diagnostic{Analyzer: "directive", Pos: pos,
						Message: fmt.Sprintf("malformed //wls:lockorder directive: %v (want //wls:lockorder A<B)", err)})
				}
				continue
			default:
				report(Diagnostic{Analyzer: "directive", Pos: pos,
					Message: fmt.Sprintf("unknown //wls: directive %q (want wallclock, nolint, or lockorder)", kind)})
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

// applyDirectives removes diagnostics covered by a //wls: directive and
// appends diagnostics for malformed directives.
func applyDirectives(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	known := map[string]bool{}
	for _, a := range Default() {
		known[a.Name] = true
	}
	// filename -> line -> analyzers suppressed there
	supp := map[string]map[int]map[string]bool{}
	var extra []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ds := parseDirectives(pkg.Fset, f, known, func(d Diagnostic) { extra = append(extra, d) })
			for _, d := range ds {
				byLine := supp[d.pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					supp[d.pos.Filename] = byLine
				}
				for _, line := range d.lines {
					set := byLine[line]
					if set == nil {
						set = map[string]bool{}
						byLine[line] = set
					}
					for name := range d.analyzers {
						// unreached consumes its directive instead: it
						// roots the function the directive documents.
						set[name] = name != "unreached"
					}
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if set := supp[d.Pos.Filename][d.Pos.Line]; set != nil && set[d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	return append(kept, extra...)
}

// ---------------------------------------------------------------------------
// Shared type-query helpers used by several analyzers.

// pkgPathOf returns the import path of the package an object belongs to,
// or "" for builtins.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// calleeObject resolves the function or method object a call expression
// invokes, looking through parentheses. Returns nil for calls through
// function-typed variables, built-ins, and type conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			if _, isFn := obj.(*types.Func); isFn {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj() // method or field selection
		}
		// Qualified identifier: pkg.Func
		if obj, ok := info.Uses[fun.Sel]; ok {
			if _, isFn := obj.(*types.Func); isFn {
				return obj
			}
		}
	}
	return nil
}

// resultsOf returns the result tuple of a call, or nil.
func resultsOf(info *types.Info, call *ast.CallExpr) *types.Tuple {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t
	default:
		if tv.Type == nil || tv.IsVoid() {
			return nil
		}
		return types.NewTuple(types.NewVar(token.NoPos, nil, "", tv.Type))
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// moduleFunc returns obj as a *types.Func when it is a function or method
// defined inside the analyzed module (the ones that carry facts), nil
// otherwise. Interface methods are excluded: they have no body, so no
// facts are ever exported for them.
func moduleFunc(module string, obj types.Object) *types.Func {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	if path != module && !strings.HasPrefix(path, module+"/") {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil
		}
	}
	return fn
}

// funcLabel renders a function for diagnostics: "pkg.Func" or
// "pkg.Type.Method".
func funcLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}
