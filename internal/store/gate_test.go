//go:build !race

package store

// Heap and allocation pins (`make gates`) of a store's resident state and
// its lock table. The race runtime keeps shadow memory and allocates on
// its own, so these tests build only without it.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

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

// Bytes per stored row over a WAL (TestGateStoreRowFootprint), measured
// 76 / 92 B when they were set at that + 10 %, and
// allocations per read of a two-field row (TestGateStoreGetAllocs).
const (
	gateStoreRowOneField  = 84
	gateStoreRowTwoFields = 102
	gateStoreGet          = 2
)

// TestGateStoreRowFootprint pins what a stored row costs over a WAL: 8 192 rows
// written one autocommit at a time, live heap after two collections,
// divided by the row count. That is the row's entry in its space's
// ordered index, the row key and the record — the row's one copy. No
// reader follows the store, so it keeps no change ring. Measured 76 B
// (one field) and 92 B (two); DESIGN.md "What a stored row costs" has
// the breakdown.
func TestGateStoreRowFootprint(t *testing.T) {
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

// TestGateStoreGetAllocs: a read walks the row's record in the kv image in
// place, so the field map it hands out is all it allocates — its keys and
// values are substrings of the record — and the caller's key is neither
// copied nor kept.
func TestGateStoreGetAllocs(t *testing.T) {
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

// TestGateLockTableGivesBackItsMap: a Go map keeps the buckets it grew after
// its entries are deleted, so the lock table of a store that once
// committed a bulk transaction would hold them for the store's life. Once
// the table empties it is a small map again: what it holds beyond a fresh
// map, after one 4 096-row transaction, is next to nothing.
func TestGateLockTableGivesBackItsMap(t *testing.T) {
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

// TestGateUncontendedAcquireAllocs pins an uncontended acquire/release at
// no allocation: the entry lives in the table's map.
func TestGateUncontendedAcquireAllocs(t *testing.T) {
	lt := newLockTable(vclock.System)
	row := []rowRef{{"t", "k"}}
	n := testing.AllocsPerRun(1000, func() {
		if _, err := lt.acquire("t1", row, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		lt.release("t1", row)
	})
	if n != 0 {
		t.Fatalf("uncontended acquire/release allocates %.1f, want 0", n)
	}
}

// TestGateLockThenUpdateFitsInline: a transaction that locks a row and then
// updates it holds the row twice (the Lock and the write's prepare hold).
// Both holds fit the session's inline lock buffer, so it allocates nothing
// the plain update does not.
func TestGateLockThenUpdateFitsInline(t *testing.T) {
	s := New("db", vclock.System)
	s.Put("stock", "sku1", map[string]string{"qty": "1"})
	fields := map[string]string{"qty": "2"}
	commit := func(lock bool) func() {
		return func() {
			se := s.Session("t")
			if lock {
				if err := se.Lock("stock", "sku1"); err != nil {
					t.Fatal(err)
				}
			}
			se.Update("stock", "sku1", fields)
			if err := se.Commit("t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain := testing.AllocsPerRun(500, commit(false))
	locked := testing.AllocsPerRun(500, commit(true))
	if locked > plain {
		t.Fatalf("lock-then-update allocates %.1f/commit, plain update %.1f", locked, plain)
	}
}
