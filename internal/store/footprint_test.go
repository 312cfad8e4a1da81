//go:build !race

package store

// Heap figures of a store's resident state. The race runtime keeps shadow
// memory of its own, so these are measured without it.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"wls/internal/kv"
	"wls/internal/vclock"
)

// liveHeap is the live heap after two collections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Bytes per stored row over a WAL (TestStoreRowFootprint), measured
// 76 / 92 B when they were set at that + 10 %, and
// allocations per read of a two-field row (TestStoreGetAllocs).
const (
	gateStoreRowOneField  = 84
	gateStoreRowTwoFields = 102
	gateStoreGet          = 2
)

// TestStoreRowFootprint pins what a stored row costs over a WAL: 8 192 rows
// written one autocommit at a time, live heap after two collections,
// divided by the row count. That is the row's entry in its space's
// ordered index, the row key and the record — the row's one copy. No
// reader follows the store, so it keeps no change ring. Measured 76 B
// (one field) and 92 B (two); DESIGN.md "What a stored row costs" has
// the breakdown.
func TestStoreRowFootprint(t *testing.T) {
	const rows = 8192
	for _, tc := range []struct {
		name   string
		fields map[string]string
		gate   float64
	}{
		{"one field", map[string]string{"last": "o-1"}, gateStoreRowOneField},
		{"two fields", map[string]string{"sku": "sku-0042", "session": "s"}, gateStoreRowTwoFields},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := kv.OpenWAL(filepath.Join(t.TempDir(), "store.db"), kv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open("db", vclock.System, w)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			before := liveHeap()
			for i := 0; i < rows; i++ {
				if _, err := s.PutE("t", "k-"+strconv.Itoa(i), tc.fields); err != nil {
					t.Fatal(err)
				}
			}
			per := float64(liveHeap()-before) / rows
			runtime.KeepAlive(s)
			t.Logf("%s: %.0f B per stored row", tc.name, per)
			if per > tc.gate {
				t.Fatalf("a stored row with %s costs %.0f B, gate is %.0f", tc.name, per, tc.gate)
			}
		})
	}
}

// TestStoreGetAllocs: a read walks the row's record in the kv image in
// place, so the field map it hands out is all it allocates — its keys and
// values are substrings of the record — and the caller's key is neither
// copied nor kept.
func TestStoreGetAllocs(t *testing.T) {
	w, err := kv.OpenWAL(filepath.Join(t.TempDir(), "store.db"), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open("db", vclock.System, w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("catalog", "sku-0042", map[string]string{"desc": "a catalog row", "price": "12"})
	key := []byte("sku-0042") // a key the caller builds, as a servlet does from a request
	n := testing.AllocsPerRun(1000, func() {
		if row, ok := s.Get("catalog", string(key)); !ok || row.Fields["price"] != "12" {
			t.Fatal("Get does not read the row back")
		}
	})
	if n > gateStoreGet {
		t.Fatalf("a read of a two-field row allocates %.1f, over gateStoreGet = %d", n, gateStoreGet)
	}
	t.Logf("a read of a two-field row: %.1f allocs", n)
}

// TestLockTableGivesBackItsMap: a Go map keeps the buckets it grew after
// its entries are deleted, so the lock table of a store that once
// committed a bulk transaction would hold them for the store's life. Once
// the table empties it is a small map again: what it holds beyond a fresh
// map, after one 4 096-row transaction, is next to nothing.
func TestLockTableGivesBackItsMap(t *testing.T) {
	s := New("db", vclock.System)
	se := s.Session("bulk")
	for i := 0; i < 4096; i++ {
		se.Insert("catalog", fmt.Sprintf("sku%05d", i), map[string]string{"desc": "row"})
	}
	if err := se.Commit("bulk"); err != nil {
		t.Fatal(err)
	}
	if n := s.locks.lockEntries(); n != 0 {
		t.Fatalf("%d lock entries left after the commit", n)
	}
	held := liveHeap()
	s.locks.mu.Lock()
	s.locks.locks = make(map[rowRef]rowLock)
	s.locks.mu.Unlock()
	extra := int64(held) - int64(liveHeap())
	runtime.KeepAlive(s)
	t.Logf("the emptied lock table holds %d B beyond a fresh map", extra)
	if extra > 1024 {
		t.Fatalf("the emptied lock table holds %d B beyond a fresh map: the map it grew was kept", extra)
	}
}
