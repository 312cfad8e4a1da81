// Package vclock provides a clock abstraction so that all time-dependent
// cluster logic — heartbeats, leases, cache time-to-live, replication grace
// periods — can run either against the real wall clock or against a manually
// advanced virtual clock.
//
// The virtual clock makes every failure scenario in the paper (a frozen
// server missing its lease renewal, a cache entry expiring mid-transaction,
// a migration grace period elapsing) a deterministic unit test instead of a
// sleep-and-hope integration test.
package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time interface the rest of the system programs
// against. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that delivers the clock's time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run after d has elapsed and returns a Timer
	// that can cancel it.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Timer is a cancellable scheduled callback.
type Timer interface {
	// Stop cancels the timer if it has not fired yet. It reports whether
	// the call prevented the timer from firing.
	Stop() bool
}

// ---------------------------------------------------------------------------
// Real clock

// Real is the wall clock. The zero value is ready to use.
type Real struct{}

// System is a shared wall-clock instance.
var System Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// ---------------------------------------------------------------------------
// Virtual clock

// Virtual is a manually advanced clock for deterministic tests and
// simulations. Time only moves when Advance is called; timers scheduled on
// the clock fire synchronously, in timestamp order, inside Advance.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
	pq  timerHeap
	seq int64 // tie-break so equal deadlines fire FIFO
	// gate serializes whole Advance calls and is always taken before mu
	// (timer callbacks run with gate held, mu released).
	//
	//wls:lockorder vclock.Virtual.gate<vclock.Virtual.mu
	gate sync.Mutex
}

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// NewVirtualAtZero returns a virtual clock at a fixed, arbitrary epoch.
// Useful when tests only care about durations.
func NewVirtualAtZero() *Virtual {
	return NewVirtual(time.Date(2003, 1, 5, 0, 0, 0, 0, time.UTC)) // CIDR 2003 week
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.AfterFunc(d, func() {
		ch <- v.Now()
	})
	return ch
}

// AfterFunc implements Clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	t := &virtualTimer{
		clock:    v,
		deadline: v.now.Add(d),
		seq:      v.seq,
		f:        f,
	}
	heap.Push(&v.pq, t)
	return t
}

// Sleep implements Clock. On a virtual clock Sleep blocks until another
// goroutine advances time past the deadline.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls within the window, in deadline order. Callbacks run synchronously on
// the caller's goroutine with the clock positioned at their deadline, so a
// callback that schedules a follow-up timer inside the window will see that
// timer fire during the same Advance call.
func (v *Virtual) Advance(d time.Duration) {
	// gate serializes concurrent Advance calls so timers fire in a single
	// global order.
	v.gate.Lock()
	defer v.gate.Unlock()

	v.mu.Lock()
	target := v.now.Add(d)
	for {
		if len(v.pq) == 0 || v.pq[0].deadline.After(target) {
			break
		}
		t := heap.Pop(&v.pq).(*virtualTimer)
		if t.stopped {
			continue
		}
		v.now = t.deadline
		f := t.f
		v.mu.Unlock()
		f()
		v.mu.Lock()
	}
	v.now = target
	v.mu.Unlock()
}

// PendingTimers reports how many unfired, unstopped timers are scheduled.
//
//wls:nolint unreached -- test hook: TestSlotHandedAtExpiryRunsOnce
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, t := range v.pq {
		if !t.stopped {
			n++
		}
	}
	return n
}

type virtualTimer struct {
	clock    *Virtual
	deadline time.Time
	seq      int64
	index    int
	f        func()
	stopped  bool
}

// Stop implements Timer.
func (t *virtualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.stopped || t.index == -1 {
		// already fired or stopped
		return false
	}
	t.stopped = true
	return true
}

// timerHeap is a min-heap ordered by (deadline, seq).
type timerHeap []*virtualTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline.Equal(h[j].deadline) {
		return h[i].seq < h[j].seq
	}
	return h[i].deadline.Before(h[j].deadline)
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*virtualTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
