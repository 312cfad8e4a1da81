package store

import (
	"sync"
	"time"

	"wls/internal/vclock"
)

// lockTable is a per-row exclusive lock manager. Locks are reentrant for
// their owning transaction and queue FIFO otherwise. Waits are bounded by
// a timeout measured on the store's clock, which doubles as the (crude but
// standard) deadlock-resolution mechanism.
type lockTable struct {
	clock vclock.Clock

	mu sync.Mutex
	// locks holds each entry by value: an uncontended acquire adds one to
	// the map's own storage and allocates nothing. A change to an entry
	// is written back.
	locks map[rowRef]rowLock
	peak  int // the most entries locks has held (see drop)
}

type rowLock struct {
	owner   string
	depth   int
	waiters []chan struct{} // closed (in FIFO order) as the lock frees
}

func newLockTable(clock vclock.Clock) *lockTable {
	return &lockTable{clock: clock, locks: make(map[rowRef]rowLock)}
}

// acquire blocks until the row lock is granted to txID or timeout elapses.
// An uncontended acquire — nearly all of them — neither reads the clock
// nor arms a timer, which would stay live until it fired.
func (lt *lockTable) acquire(txID, table, key string, timeout time.Duration) error {
	ref := rowRef{table, key}
	if lt.tryAcquire(ref, txID, nil) {
		return nil
	}
	deadline := lt.clock.Now().Add(timeout)
	// One timer covers the whole wait: re-arming per contention wakeup
	// would leave a timer live per iteration (wlslint: afterloop).
	expired := lt.clock.After(timeout)
	for {
		ch := make(chan struct{})
		if lt.tryAcquire(ref, txID, ch) {
			return nil
		}
		if !deadline.After(lt.clock.Now()) {
			lt.abandon(ref, ch)
			return ErrLockTimeout
		}
		select {
		case <-ch:
			// Woken: loop and contend again (FIFO wake keeps this fair).
		case <-expired:
			lt.abandon(ref, ch)
			return ErrLockTimeout
		}
	}
}

// tryAcquire grants the row to txID if it is free, handed to its waiters,
// or already txID's; otherwise it queues wait (if any) and reports false.
func (lt *lockTable) tryAcquire(ref rowRef, txID string, wait chan struct{}) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.locks[ref]
	switch {
	case !ok:
		l = rowLock{owner: txID, depth: 1}
	case l.owner == txID:
		l.depth++
	case l.owner == "":
		// Released with waiters woken; first contender takes it.
		l.owner, l.depth = txID, 1
	default:
		if wait != nil {
			l.waiters = append(l.waiters, wait)
			lt.locks[ref] = l
		}
		return false
	}
	lt.locks[ref] = l
	lt.peak = max(lt.peak, len(lt.locks))
	return true
}

// abandon removes a waiter that gave up; if the lock was already handed to
// that waiter (channel closed), pass the wake-up along.
func (lt *lockTable) abandon(ref rowRef, ch chan struct{}) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.locks[ref]
	if !ok {
		return
	}
	for i, w := range l.waiters {
		if w == ch {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			lt.locks[ref] = l
			return
		}
	}
	// Not in the queue: we were already woken. Wake the next in line so
	// the grant is not lost.
	select {
	case <-ch:
		if len(l.waiters) > 0 {
			next := l.waiters[0]
			l.waiters = l.waiters[1:]
			lt.locks[ref] = l
			close(next)
		} else if l.owner == "" && l.depth == 0 {
			lt.drop(ref)
		}
	default:
	}
}

// release drops one hold of txID's lock; the final release wakes the first
// waiter.
func (lt *lockTable) release(txID, table, key string) {
	ref := rowRef{table, key}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.locks[ref]
	if !ok || l.owner != txID {
		return
	}
	l.depth--
	switch {
	case l.depth > 0:
		lt.locks[ref] = l
	case len(l.waiters) > 0:
		// Hand off: clear ownership, wake the head; it re-contends and
		// wins because the lock entry has no owner.
		l.owner = ""
		next := l.waiters[0]
		l.waiters = l.waiters[1:]
		lt.locks[ref] = l
		close(next)
	default:
		lt.drop(ref)
	}
}

// drop deletes ref's entry. A Go map keeps the buckets it grew, so once
// the table empties after holding more than 64 entries (a bulk
// transaction's) it is replaced by a fresh map.
func (lt *lockTable) drop(ref rowRef) {
	delete(lt.locks, ref)
	if len(lt.locks) == 0 && lt.peak > 64 {
		lt.locks, lt.peak = make(map[rowRef]rowLock), 0
	}
}
