package store

import (
	"errors"
	"fmt"
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
	row := []rowRef{{"t", "k"}}
	for i := 0; i < 10; i++ {
		if _, err := lt.acquire("t1", row, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		lt.release("t1", row)
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
	row := []rowRef{{"t", "k"}}
	if _, err := lt.acquire("holder", row, time.Minute); err != nil {
		t.Fatal(err)
	}
	if at := clk.Virtual.Now().Sub(start); at != 0 {
		t.Fatalf("an uncontended acquire read the clock (%v passed)", at)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := lt.acquire("waiter", row, 10*time.Second) // the failed try reads 1s: deadline 11s
		errc <- err
	}()
	for clk.Virtual.Now().Sub(start) < 2*time.Second { // its second and last clock read, just before it parks
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

// depthOf reports how many holds the owner of a row has taken.
func (lt *lockTable) depthOf(table, key string) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.locks[rowRef{table, key}].depth
}

// lockPassRows stages a 100-row write set in a session of its own and has
// another transaction hold row 40 of it.
func lockPassRows(t *testing.T, s *Store) (bulk, holder *Session) {
	t.Helper()
	holder = s.Session("holder")
	if err := holder.Lock("t", "k040"); err != nil {
		t.Fatal(err)
	}
	bulk = s.Session("bulk")
	for i := 0; i < 100; i++ {
		bulk.Insert("t", fmt.Sprintf("k%03d", i), fields("v", "1"))
	}
	return bulk, holder
}

// TestLockPassWaitsAtTheHeldRow: a write set takes its rows in order in
// one pass and waits at the first row another transaction holds, holding
// the rows before it and none after. It commits once the row is released,
// and the table ends empty.
func TestLockPassWaitsAtTheHeldRow(t *testing.T) {
	s := New("db", vclock.System)
	bulk, holder := lockPassRows(t, s)
	done := make(chan error, 1)
	go func() { done <- bulk.Commit("bulk") }()
	for wait := time.Now(); s.locks.ownerOf("t", "k039") != "bulk"; time.Sleep(time.Millisecond) {
		if time.Since(wait) > 5*time.Second {
			t.Fatal("the pass never reached row 39")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("the commit ended (%v) while row 40 was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	if owner := s.locks.ownerOf("t", "k041"); owner != "" {
		t.Fatalf("row 41 is held by %q while the pass waits at row 40", owner)
	}
	if err := holder.Rollback("holder"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := s.locks.lockEntries(); n != 0 {
		t.Fatalf("%d lock entries left after the commit", n)
	}
	if n := s.Count("t"); n != 100 {
		t.Fatalf("%d rows committed, want 100", n)
	}
}

// TestLockPassTimesOutAtTheHeldRow: a pass whose wait times out returns
// ErrLockTimeout and gives back the rows it took before the held one; the
// other transaction keeps its hold.
func TestLockPassTimesOutAtTheHeldRow(t *testing.T) {
	s := New("db", vclock.System)
	bulk, holder := lockPassRows(t, s)
	bulk.LockTimeout = 20 * time.Millisecond
	if err := bulk.Commit("bulk"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("commit = %v, want ErrLockTimeout", err)
	}
	if n := s.locks.lockEntries(); n != 1 {
		t.Fatalf("%d lock entries after the timeout, want the holder's one", n)
	}
	if owner, depth := s.locks.ownerOf("t", "k040"), s.locks.depthOf("t", "k040"); owner != "holder" || depth != 1 {
		t.Fatalf("row 40 held by %q %d deep, want the holder 1 deep", owner, depth)
	}
	if err := holder.Rollback("holder"); err != nil {
		t.Fatal(err)
	}
	if n := s.locks.lockEntries(); n != 0 {
		t.Fatalf("%d lock entries left after the holder ended", n)
	}
	if n := s.Count("t"); n != 0 {
		t.Fatalf("%d rows committed by a timed-out pass", n)
	}
}

// TestLockPassHoldsEachWrite: Lock, then two writes to the same row, hold it
// three deep; commit and rollback each give back all three.
func TestLockPassHoldsEachWrite(t *testing.T) {
	for _, end := range []string{"commit", "rollback"} {
		t.Run(end, func(t *testing.T) {
			s := New("db", vclock.System)
			se := s.Session("t1")
			if err := se.Lock("stock", "sku1"); err != nil {
				t.Fatal(err)
			}
			se.Insert("stock", "sku1", fields("qty", "9"))
			se.Update("stock", "sku1", fields("qty", "8"))
			if err := se.Prepare("t1"); err != nil {
				t.Fatal(err)
			}
			if d := s.locks.depthOf("stock", "sku1"); d != 3 {
				t.Fatalf("row held %d deep after Lock and two writes, want 3", d)
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
			if n := s.locks.lockEntries(); n != 0 {
				t.Fatalf("%d lock entries left after %s", n, end)
			}
		})
	}
}

// waitersOf reports how many transactions wait for a row.
func (lt *lockTable) waitersOf(table, key string) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.locks[rowRef{table, key}].waiters)
}

// TestLockRacingRollbackKeepsNoHold: a Lock still waiting when its
// transaction rolls back (the tx timeout firing inside GetForUpdate, say)
// returns an error once its wait ends, whether the row is then granted or
// the wait times out, and keeps no hold: the session already held a lock,
// and the table ends empty.
func TestLockRacingRollbackKeepsNoHold(t *testing.T) {
	for _, end := range []struct {
		name string
		want error
	}{{"granted", ErrSessionEnded}, {"timeout", ErrLockTimeout}} {
		t.Run(end.name, func(t *testing.T) {
			s := New("db", vclock.System)
			other := s.Session("other")
			if err := other.Lock("t", "b"); err != nil {
				t.Fatal(err)
			}
			se := s.Session("t1")
			if err := se.Lock("t", "a"); err != nil {
				t.Fatal(err)
			}
			if end.want == ErrLockTimeout {
				se.LockTimeout = 20 * time.Millisecond
			}
			done := make(chan error, 1)
			go func() { done <- se.Lock("t", "b") }()
			for wait := time.Now(); s.locks.waitersOf("t", "b") == 0; time.Sleep(time.Millisecond) {
				if time.Since(wait) > 5*time.Second {
					t.Fatal("the second Lock never queued")
				}
			}
			if err := se.Rollback("t1"); err != nil {
				t.Fatal(err)
			}
			if end.want == ErrSessionEnded {
				if err := other.Rollback("other"); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-done; !errors.Is(err, end.want) {
				t.Fatalf("Lock = %v, want %v", err, end.want)
			}
			if end.want == ErrLockTimeout {
				if err := other.Rollback("other"); err != nil {
					t.Fatal(err)
				}
			}
			if n := s.locks.lockEntries(); n != 0 {
				t.Fatalf("%d lock entries left after both transactions ended", n)
			}
		})
	}
}
