package store

import (
	"fmt"
	"path/filepath"
	"testing"

	"wls/internal/kv"
	"wls/internal/vclock"
)

// readBenchStore is a WAL-backed store shaped like the benchmark's
// inventory beside its orders: a 50-row catalog of two-field rows and a
// 4 096-row orders table.
func readBenchStore(b *testing.B) *Store {
	b.Helper()
	w, err := kv.OpenWAL(filepath.Join(b.TempDir(), "store.db"), kv.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open("db", vclock.System, w)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < 4096; i++ {
		s.Put("orders", fmt.Sprintf("o-%x", i), map[string]string{"sku": "sku-0001", "session": "s"})
	}
	for i := 0; i < 50; i++ {
		s.Put("catalog", fmt.Sprintf("sku-%04d", i), map[string]string{"desc": "a catalog row", "price": "12"})
	}
	return s
}

// BenchmarkStoreGet reads one catalog row by key: the kv image lookup,
// the walk of its record and the field map handed out.
func BenchmarkStoreGet(b *testing.B) {
	s := readBenchStore(b)
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("sku-%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("catalog", keys[i%len(keys)]); !ok {
			b.Fatal("row missing")
		}
	}
}

// BenchmarkStoreScan50 scans the 50-row catalog: quiet, with nothing
// written since the last scan, and after an insert, with one new orders
// row committed before each scan (timed with it), as a store serving
// checkouts between its reads has.
func BenchmarkStoreScan50(b *testing.B) {
	for _, insert := range []bool{false, true} {
		name := "quiet"
		if insert {
			name = "after-insert"
		}
		b.Run(name, func(b *testing.B) {
			s := readBenchStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if insert {
					s.Put("orders", fmt.Sprintf("n-%x", i), map[string]string{"sku": "sku-0001"})
				}
				if rows := s.Scan("catalog", nil); len(rows) != 50 {
					b.Fatalf("scan read %d rows", len(rows))
				}
			}
		})
	}
}
