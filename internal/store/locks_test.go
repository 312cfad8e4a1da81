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
