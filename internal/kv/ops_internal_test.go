package kv

import (
	"runtime"
	"testing"

	"wls/internal/wire"
)

// TestALyingOpCountFails feeds decodeOps a short op stream whose count is
// negative or far beyond what its bytes hold: it must fail, not panic,
// and size nothing by the count.
func TestALyingOpCountFails(t *testing.T) {
	for _, n := range []int{-1, 1 << 24, 1 << 40} {
		e := wire.NewEncoder(8)
		e.Int(n)
		e.Byte(byte(OpDelete))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ops, err := decodeOps(wire.NewDecoder(e.Bytes()))
		runtime.ReadMemStats(&after)
		if err == nil || ops != nil {
			t.Fatalf("count %d: got %d ops, %v; want an error", n, len(ops), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("count %d: allocated %d bytes", n, got)
		}
	}
}
