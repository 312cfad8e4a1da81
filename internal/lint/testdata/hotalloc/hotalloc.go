// Package hotalloc exercises the hot-path allocation analyzer: one
// annotated root, allocation idioms inside it, a transitive callee one
// hop away, a cross-package callee two hops away, cold functions that
// stay silent, pooled-object escape escalation (local and cross-package),
// and the suppression/dangling-directive paths.
package hotalloc

import (
	"sync"

	"fmt"

	"wls/internal/lint/testdata/hotalloc/sub"
)

type frame struct {
	data []byte
}

type sink interface{ accept(any) }

// req models a pooled request object.
//
//wls:pooled
type req struct {
	path string
}

var reqPool = sync.Pool{New: func() any { return new(req) }}

// handle is the annotated hot-path root.
//
//wls:hotpath
func handle(s sink, n int) {
	msg := fmt.Sprintf("n=%d", n) // want "call to fmt.Sprintf"
	_ = msg
	b := make([]byte, 16) // want "make of []byte"
	b = append(b, 1)      // want "append"
	_ = string(b)         // want "conversion"
	s.accept(n)           // want "boxing int into any"
	f := &frame{}         // want "composite literal"
	_ = f.data
	cb := func() {} // want "closure allocation"
	cb()
	//wls:nolint hotalloc -- fixture: accepted allocation, suppression path under test
	_ = make([]int, n)
	helper(n)
}

// helper is hot transitively (one hop from the root).
func helper(n int) {
	_ = []int{n} // want "composite literal"
	sub.Encode(n)
}

// cold is never reached from a hot root: identical idioms, no findings.
func cold(n int) {
	_ = fmt.Sprintf("n=%d", n)
	_ = make([]byte, 8)
	sub.Cold()
}

// retain stands in for any sink that can outlive the request.
func retain(v any) { _ = v }

// serve is a hot root exercising the pooled-escape kinds: boxing a pooled
// object into an interface and capturing one in a closure both escalate
// (the hazard is retention, so even allocation-free pointer boxing fires);
// handing the object back to its sync.Pool is silent — Put IS the release,
// and boxing a pointer allocates nothing.
//
//wls:hotpath
func serve(cb func(func()), b *sub.Buf) {
	r := reqPool.Get().(*req)
	retain(r)   // want "boxing pooled *hotalloc.req into any passed to hotalloc.retain"
	retain(b)   // want "boxing pooled *sub.Buf into any passed to hotalloc.retain"
	_ = any(r)  // want "boxing pooled *hotalloc.req into any"
	cb(func() { // want "closure captures pooled *hotalloc.req"
		_ = r.path
	})
	cb(func() { // want "closure captures pooled *sub.Buf"
		_ = b.Data
	})
	reqPool.Put(r) // no finding: pointer boxing is free and Put is the release
}

var table map[string]int

type key struct{}

// lookup is a hot root exercising the allocation-free idioms the analyzer
// must NOT report: map reads keyed by string(b), string(b) comparisons and
// switch tags, and boxing of pointer-shaped or zero-size values.
//
//wls:hotpath
func lookup(s sink, b []byte, p *frame) {
	_ = table[string(b)] // map read: gc elides the copy, no finding
	if string(b) == "x" {
		table[string(b)] = 1 // want "conversion"
	}
	switch string(b) { // tag comparison: no finding
	case "y":
	}
	s.accept(p)     // pointer boxing: data word holds it, no finding
	s.accept(key{}) // zero-size boxing: zerobase, no finding
	_ = error(nil)  // untyped nil: no finding
	s.accept(b)     // want "boxing []byte into any"
}

// respond is a hot root whose failure branch is cut out of the closure:
// nothing in fail, or in what only fail calls, is reported.
//
//wls:hotpath
func respond(ok bool) []int {
	if !ok {
		return fail()
	}
	return make([]int, 1) // want "make of"
}

// fail runs once per failed request at most.
//
//wls:coldpath the error branch
func fail() []int {
	return failDetail()
}

func failDetail() []int { return make([]int, 64) }

// dangling directives annotate nothing and are reported where they sit.
func misannotated() {
	/* want "must appear in a function's doc comment" */ //wls:hotpath
	/* want "must appear in a function's doc comment to cut" */ //wls:coldpath x
	/* want "must appear in a type declaration's doc comment" */ //wls:pooled
}
