package tuple

import (
	"reflect"
	"runtime"
	"testing"

	"wls/internal/kv"
	"wls/internal/wire"
)

// TestALyingStagedOpCountFails feeds decodeStaged a short stage record —
// New reads them from disk — whose count is negative or far beyond what its
// bytes hold: it must fail, not panic, and size nothing by the count.
func TestALyingStagedOpCountFails(t *testing.T) {
	for _, n := range []int{-1, 1 << 24, 1 << 40} {
		e := wire.NewEncoder(8)
		e.Int(n)
		e.Byte(byte(kv.OpPut))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ops, err := decodeStaged(e.Bytes())
		runtime.ReadMemStats(&after)
		if err == nil || ops != nil {
			t.Fatalf("count %d: got %d ops, %v; want an error", n, len(ops), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("count %d: allocated %d bytes", n, got)
		}
	}
}

// FuzzDecodeStaged: any bytes as a stage record give an error or ops that
// encodeStaged writes back to a record read as the same ops.
func FuzzDecodeStaged(f *testing.F) {
	f.Add([]byte(encodeStaged(nil)))
	f.Add([]byte(encodeStaged([]kv.Op{
		{Kind: kv.OpPut, Space: "orders", Key: "o-1", Value: "qty=2"},
		{Kind: kv.OpDelete, Space: "orders", Key: "o-0"},
		{Kind: kv.OpPut, Space: "", Key: "", Value: ""},
	})))
	f.Add([]byte{0x02, byte(kv.OpPut), 0x00})
	f.Add([]byte{0x80, 0x80, 0x80, 0x10, byte(kv.OpPut)})
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, err := decodeStaged(b)
		if err != nil {
			return
		}
		rec := encodeStaged(ops)
		again, err := decodeStaged([]byte(rec))
		if err != nil {
			t.Fatalf("record %x: re-encoded as %x, which fails: %v", b, rec, err)
		}
		if len(ops) != len(again) || len(ops) > 0 && !reflect.DeepEqual(ops, again) {
			t.Fatalf("record %x: read %v, re-read %v", b, ops, again)
		}
		if encodeStaged(again) != rec {
			t.Fatalf("record %x: encodings differ", b)
		}
	})
}
