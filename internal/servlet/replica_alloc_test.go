//go:build !race

package servlet

import (
	"strconv"
	"testing"

	"wls/internal/wire"
)

// TestReplicaUpdateAllocsPerChangedValue pins the secondary's steady state:
// applying a delta to keys the replica already holds allocates exactly one
// string per value that changed — never the key again — and nothing at all
// when the values are unchanged.
func TestReplicaUpdateAllocsPerChangedValue(t *testing.T) {
	sm := &SessionManager{attrKeys: wire.NewInterner(0), sessions: make(map[string]*sessState)}
	var gen uint64
	delta := func(n, item string) []byte {
		gen++
		e := wire.NewEncoder(64)
		e.String("s1-sess-1")
		e.Uint64(gen)
		e.Int(2)
		e.String("n")
		e.String(n)
		e.String("item")
		e.String(item)
		return e.Bytes()
	}
	if err := sm.handleUpdateBatch(delta("0", "sku-0")); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	deltas := make([][]byte, 0, runs+1)
	for i := 1; i <= runs+1; i++ {
		deltas = append(deltas, delta(strconv.Itoa(1000+i), "sku-"+strconv.Itoa(1000+i)))
	}
	i := 0
	changed := testing.AllocsPerRun(runs, func() {
		if err := sm.handleUpdateBatch(deltas[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if changed != 2 {
		t.Fatalf("update of 2 existing keys with new values: %.1f allocs, want 2 (one per changed value)", changed)
	}
	rec := &sm.sessions["s1-sess-1"].rec
	if got := rec.attrs[rec.find("n")].value; got != strconv.Itoa(1000+runs+1) {
		t.Fatalf("replica holds n=%q after the updates", got)
	}

	same := make([][]byte, 0, runs+1)
	for i := 0; i <= runs; i++ {
		same = append(same, delta("7", "sku-7"))
	}
	if err := sm.handleUpdateBatch(delta("7", "sku-7")); err != nil {
		t.Fatal(err)
	}
	i = 0
	unchanged := testing.AllocsPerRun(runs, func() {
		if err := sm.handleUpdateBatch(same[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if unchanged != 0 {
		t.Fatalf("update with unchanged values: %.1f allocs, want 0", unchanged)
	}
}
