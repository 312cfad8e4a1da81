package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
)

// Fact is a piece of per-object information an analyzer derives while
// analyzing the package that defines the object and reads back when
// analyzing dependents — the stdlib-only analogue of go/analysis facts.
//
// Because every package of one Run shares a single token.FileSet and one
// types universe (the loader caches type-checked packages and resolves
// module-internal imports against them), a types.Object is a stable
// cross-package key and facts can simply live in memory: no gob encoding,
// no fact files. Run analyzes packages in dependency order (imports
// first), so by the time an analyzer sees a call into another module
// package, the facts for the callee have already been exported.
//
// Implementations are small structs, stored and read back by pointer.
type Fact any

// factKey identifies one fact slot: facts are namespaced per analyzer and
// per concrete fact type, mirroring go/analysis semantics.
type factKey struct {
	obj      types.Object
	analyzer *Analyzer
	ftype    reflect.Type
}

// factStore is the per-Run fact table shared by every package pass and the
// global Finish passes.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: map[factKey]Fact{}}
}

func (s *factStore) export(a *Analyzer, obj types.Object, f Fact) {
	s.m[factKey{obj: obj, analyzer: a, ftype: reflect.TypeOf(f)}] = f
}

// imp copies the stored fact of f's type for obj into f (which must be a
// pointer to a fact struct) and reports whether one was found.
func (s *factStore) imp(a *Analyzer, obj types.Object, f Fact) bool {
	key := factKey{obj: obj, analyzer: a, ftype: reflect.TypeOf(f)}
	stored, ok := s.m[key]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// ExportObjectFact attaches a fact to obj, visible to later passes of the
// same analyzer (dependent packages and the Finish phase).
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	p.facts.export(p.analyzer, obj, f)
}

// ImportObjectFact copies the fact of f's dynamic type previously exported
// for obj into f and reports whether one existed. f must be a pointer.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	return p.facts.imp(p.analyzer, obj, f)
}

// State returns this analyzer's per-Run scratch state, creating it with
// init on first use. Analyzers use it to accumulate cross-package data
// (lock graphs, call graphs) for their Finish phase without carrying
// mutable state on the Analyzer value itself, which keeps Analyzer
// instances reusable across Runs.
func (p *Pass) State(init func() any) any {
	if v, ok := p.states[p.analyzer]; ok {
		return v
	}
	v := init()
	p.states[p.analyzer] = v
	return v
}

// GlobalPass is handed to an analyzer's Finish hook after every package
// has been analyzed: whole-program reporting (cycle detection, reachability
// closures) happens here.
type GlobalPass struct {
	Fset *token.FileSet
	// Pkgs are all analyzed packages in analysis (dependency) order.
	Pkgs []*Package

	analyzer *Analyzer
	states   map[*Analyzer]any
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (g *GlobalPass) Reportf(pos token.Pos, format string, args ...any) {
	*g.sink = append(*g.sink, Diagnostic{
		Analyzer: g.analyzer.Name,
		Pos:      g.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// State is Pass.State for the Finish phase.
func (g *GlobalPass) State(init func() any) any {
	if v, ok := g.states[g.analyzer]; ok {
		return v
	}
	v := init()
	g.states[g.analyzer] = v
	return v
}
