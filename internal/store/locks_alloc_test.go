//go:build !race

package store

import (
	"testing"
	"time"

	"wls/internal/vclock"
)

// TestUncontendedAcquireAllocs pins an uncontended acquire/release at its
// lock entry and nothing else (the race runtime adds allocations of its
// own, so this is measured without it).
func TestUncontendedAcquireAllocs(t *testing.T) {
	lt := newLockTable(vclock.System)
	n := testing.AllocsPerRun(1000, func() {
		if err := lt.acquire("t1", "t", "k", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		lt.release("t1", "t", "k")
	})
	if n > 1 {
		t.Fatalf("uncontended acquire/release allocates %.1f, want at most the lock entry", n)
	}
}
