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

// TestStoreRowFootprint pins what a stored row costs over a WAL: 8 192 rows
// written one autocommit at a time, live heap after two collections,
// divided by the row count. That is the image's table slot and field list,
// the kv image's key and record, and the change ring amortised over the
// rows. Measured 306 B (one field) and 354 B (two), pinned at that + 10 %;
// with a field map per row it was 646 and 663 B (DESIGN.md "What a stored
// row costs" has the breakdown).
func TestStoreRowFootprint(t *testing.T) {
	const rows = 8192
	for _, tc := range []struct {
		name   string
		fields map[string]string
		gate   float64
	}{
		{"one field", map[string]string{"last": "o-1"}, 337},
		{"two fields", map[string]string{"sku": "sku-0042", "session": "s"}, 389},
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
	s.locks.locks = make(map[rowRef]*rowLock)
	s.locks.mu.Unlock()
	extra := int64(held) - int64(liveHeap())
	runtime.KeepAlive(s)
	t.Logf("the emptied lock table holds %d B beyond a fresh map", extra)
	if extra > 1024 {
		t.Fatalf("the emptied lock table holds %d B beyond a fresh map: the map it grew was kept", extra)
	}
}
