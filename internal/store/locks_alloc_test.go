//go:build !race

package store

import (
	"testing"
	"time"

	"wls/internal/vclock"
)

// TestUncontendedAcquireAllocs pins an uncontended acquire/release at no
// allocation: the entry lives in the table's map (the race runtime adds
// allocations of its own, so this is measured without it).
func TestUncontendedAcquireAllocs(t *testing.T) {
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

// TestLockThenUpdateFitsInline: a transaction that locks a row and then
// updates it holds the row twice (the Lock and the write's prepare hold).
// Both holds fit the session's inline lock buffer, so it allocates nothing
// the plain update does not.
func TestLockThenUpdateFitsInline(t *testing.T) {
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
