package store

import (
	"errors"
	"testing"
	"time"

	"wls/internal/vclock"
)

// tickingClock moves its virtual clock forward by step on every Now, so
// time visibly passes between an acquire's entry and its first wait.
type tickingClock struct {
	*vclock.Virtual
	step time.Duration
}

func (c tickingClock) Now() time.Time {
	c.Virtual.Advance(c.step)
	return c.Virtual.Now()
}

// TestUncontendedAcquireArmsNoTimer: the timeout timer exists only for an
// acquire that has to wait.
func TestUncontendedAcquireArmsNoTimer(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	lt := newLockTable(clk)
	for i := 0; i < 10; i++ {
		if err := lt.acquire("t1", "t", "k", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		lt.release("t1", "t", "k")
	}
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("%d timers pending after uncontended acquires", n)
	}
}

// TestContendedWaitTimesOutFromEntry: the timer is armed late, on the first
// failed try, but no clock time passes between entry and that try — the
// wait ends timeout after the acquire was called.
func TestContendedWaitTimesOutFromEntry(t *testing.T) {
	clk := tickingClock{Virtual: vclock.NewVirtualAtZero(), step: time.Second}
	start := clk.Virtual.Now()
	lt := newLockTable(clk)
	if err := lt.acquire("holder", "t", "k", time.Minute); err != nil {
		t.Fatal(err)
	}
	if at := clk.Virtual.Now().Sub(start); at != 0 {
		t.Fatalf("an uncontended acquire read the clock (%v passed)", at)
	}
	errc := make(chan error, 1)
	go func() { errc <- lt.acquire("waiter", "t", "k", 10*time.Second) }() // the failed try reads 1s: deadline 11s
	for clk.Virtual.Now().Sub(start) < 2*time.Second {                     // its second and last clock read, just before it parks
		time.Sleep(time.Millisecond)
	}
	clk.Virtual.Advance(8*time.Second + 999*time.Millisecond) // 10.999s
	select {
	case err := <-errc:
		t.Fatalf("wait ended early with %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Virtual.Advance(time.Millisecond) // 11s: 10s after the acquire was called
	select {
	case err := <-errc:
		if !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("want ErrLockTimeout, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the wait did not end at entry + timeout")
	}
	if lt.ownerOf("t", "k") != "holder" {
		t.Fatal("the holder lost its lock")
	}
}

// lockEntries reports how many rows the table holds an entry for.
func (lt *lockTable) lockEntries() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.locks)
}

// TestReentrantHoldsReleaseWithTheTransaction: a transaction that locks a
// row and then writes it twice holds the row three deep (the explicit Lock
// plus one prepare hold per write). Whether it commits or aborts, every
// hold is released: the lock table ends empty and a transaction waiting on
// the row is granted it.
func TestReentrantHoldsReleaseWithTheTransaction(t *testing.T) {
	for _, end := range []string{"commit", "abort"} {
		t.Run(end, func(t *testing.T) {
			s := New("db", vclock.System)
			seed := s.Session("seed")
			seed.Insert("stock", "sku1", map[string]string{"qty": "10"})
			if err := seed.Commit("seed"); err != nil {
				t.Fatal(err)
			}

			se := s.Session("t1")
			if _, _, err := se.GetForUpdate("stock", "sku1"); err != nil {
				t.Fatal(err)
			}
			se.Update("stock", "sku1", map[string]string{"qty": "9"})
			se.Update("stock", "sku1", map[string]string{"qty": "8"})
			if err := se.Prepare("t1"); err != nil {
				t.Fatal(err)
			}
			if owner := s.locks.ownerOf("stock", "sku1"); owner != "t1" {
				t.Fatalf("row owned by %q after prepare, want t1", owner)
			}

			granted := make(chan error, 1)
			go func() { granted <- s.Session("t2").Lock("stock", "sku1") }()
			select {
			case err := <-granted:
				t.Fatalf("waiter got the row while t1 still held it (err %v)", err)
			case <-time.After(20 * time.Millisecond):
			}

			var err error
			if end == "commit" {
				err = se.Commit("t1")
			} else {
				err = se.Rollback("t1")
			}
			if err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-granted:
				if err != nil {
					t.Fatalf("waiter: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter never granted: a hold of t1 was not released")
			}
			if owner := s.locks.ownerOf("stock", "sku1"); owner != "t2" {
				t.Fatalf("row owned by %q, want the waiter t2", owner)
			}
			if err := s.Session("t2").Rollback("t2"); err != nil {
				t.Fatal(err)
			}
			if n := s.locks.lockEntries(); n != 0 {
				t.Fatalf("%d lock entries left after both transactions ended", n)
			}
			want := map[string]string{"commit": "8", "abort": "10"}[end]
			if row, _ := s.Get("stock", "sku1"); row.Fields["qty"] != want {
				t.Fatalf("qty = %q after %s, want %s", row.Fields["qty"], end, want)
			}
		})
	}
}
