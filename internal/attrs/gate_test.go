//go:build !race

package attrs

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"testing"

	"wls/internal/wire"
)

// TestGateReadsDoNotAllocate: the readers allocate nothing over either kind of
// input, and Merge allocates its result only, none when nothing changes.
func TestGateReadsDoNotAllocate(t *testing.T) {
	list := listOf("a", "1", "item", "sku-0042", "n", "12")
	rec := Merge("", len(head), []byte(head), list)
	same, write := listOf("n", "12"), listOf("n", "13", "a", "2")
	var sink int
	for name, f := range map[string]func(){
		"check bytes":   func() { sink, _ = Check(list, true) },
		"check string":  func() { sink, _ = Check(rec[len(head):], true) },
		"read":          func() { b, _ := Read(wire.NewDecoder(list), true); sink = len(b) },
		"lookup bytes":  func() { v, _ := Lookup(list, "n"); sink = len(v) },
		"lookup string": func() { v, _ := Lookup(rec[len(head):], "n"); sink = len(v) },
		"walk": func() {
			sink = 0
			for c := Walk(list); c.Next(); {
				sink += len(c.K)
			}
		},
		"merge unchanged": func() { sink = len(Merge(rec, len(head), nil, same)) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %.1f allocations", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sink = len(Merge(rec, len(head), nil, write)) }); n != 1 {
		t.Errorf("merge: %.1f allocations, want the result's one", n)
	}
	_ = sink
}
