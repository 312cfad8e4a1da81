package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualNowAdvance(t *testing.T) {
	v := NewVirtualAtZero()
	start := v.Now()
	v.Advance(3 * time.Second)
	if got := v.Since(start); got != 3*time.Second {
		t.Fatalf("Since = %v, want 3s", got)
	}
}

func TestVirtualAfterFuncFiresInOrder(t *testing.T) {
	v := NewVirtualAtZero()
	var order []int
	v.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	v.Advance(25 * time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	v.Advance(10 * time.Millisecond)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestVirtualEqualDeadlinesFIFO(t *testing.T) {
	v := NewVirtualAtZero()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	v.Advance(time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtualAtZero()
	fired := false
	tm := v.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop should report true before firing")
	}
	v.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
}

func TestVirtualStopAfterFire(t *testing.T) {
	v := NewVirtualAtZero()
	tm := v.AfterFunc(time.Second, func() {})
	v.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestVirtualCallbackSchedulesFollowUp(t *testing.T) {
	v := NewVirtualAtZero()
	var fires int
	var schedule func()
	schedule = func() {
		v.AfterFunc(10*time.Millisecond, func() {
			fires++
			if fires < 5 {
				schedule()
			}
		})
	}
	schedule()
	v.Advance(100 * time.Millisecond)
	if fires != 5 {
		t.Fatalf("fires = %d, want 5 (follow-up timers inside window must fire)", fires)
	}
}

func TestVirtualClockTimeDuringCallback(t *testing.T) {
	v := NewVirtualAtZero()
	start := v.Now()
	var at time.Duration
	v.AfterFunc(7*time.Millisecond, func() { at = v.Now().Sub(start) })
	v.Advance(50 * time.Millisecond)
	if at != 7*time.Millisecond {
		t.Fatalf("callback observed t=%v, want 7ms", at)
	}
	if v.Since(start) != 50*time.Millisecond {
		t.Fatalf("after Advance, Since = %v, want 50ms", v.Since(start))
	}
}

func TestVirtualAfterChannel(t *testing.T) {
	v := NewVirtualAtZero()
	ch := v.After(time.Second)
	select {
	case <-ch:
		t.Fatal("After channel fired early")
	default:
	}
	v.Advance(time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("After channel did not fire")
	}
}

func TestVirtualSleepUnblocks(t *testing.T) {
	v := NewVirtualAtZero()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		wg.Done()
		v.Sleep(time.Second)
		close(done)
	}()
	wg.Wait()
	// Give the sleeper a moment to register its timer.
	for i := 0; i < 100 && v.PendingTimers() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	v.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not unblock after Advance")
	}
}

func TestVirtualNegativeDelayFiresImmediately(t *testing.T) {
	v := NewVirtualAtZero()
	fired := false
	v.AfterFunc(-time.Second, func() { fired = true })
	v.Advance(0)
	if !fired {
		t.Fatal("negative-delay timer should fire on next Advance")
	}
}

func TestVirtualConcurrentAdvanceSafe(t *testing.T) {
	v := NewVirtualAtZero()
	var fires atomic.Int64
	for i := 0; i < 100; i++ {
		v.AfterFunc(time.Duration(i)*time.Millisecond, func() { fires.Add(1) })
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Advance(30 * time.Millisecond)
		}()
	}
	wg.Wait()
	if fires.Load() != 100 {
		t.Fatalf("fires = %d, want 100", fires.Load())
	}
}

func TestRealClockBasics(t *testing.T) {
	c := System
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not move")
	}
	tm := c.AfterFunc(time.Hour, func() { t.Error("should not fire") })
	if !tm.Stop() {
		t.Fatal("Stop on pending real timer should be true")
	}
}

func TestPendingTimers(t *testing.T) {
	v := NewVirtualAtZero()
	a := v.AfterFunc(time.Second, func() {})
	v.AfterFunc(2*time.Second, func() {})
	if got := v.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers = %d, want 2", got)
	}
	a.Stop()
	if got := v.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers after stop = %d, want 1", got)
	}
}

// TestLoopContract holds vclock.Loop to its doc comment on the virtual
// clock: each case drives one loop for 100 ms of 10 ms runs and counts the
// runs and the timers left pending.
func TestLoopContract(t *testing.T) {
	const tick = 10 * time.Millisecond
	startAndRun := func(l *Loop, v *Virtual) {
		l.Start(tick)
		v.Advance(100 * time.Millisecond)
	}
	cases := []struct {
		name string
		// run is the n-th run's body (nil: return tick).
		run     func(l *Loop, n int, epoch uint64) time.Duration
		drive   func(l *Loop, v *Virtual) // nil: startAndRun
		runs    int
		pending int
	}{
		{name: "runs every returned delay", runs: 10, pending: 1},
		{name: "first run after first", drive: func(l *Loop, v *Virtual) {
			l.Start(50 * time.Millisecond)
			v.Advance(100 * time.Millisecond)
		}, runs: 6, pending: 1},
		{name: "start on a started loop does nothing", drive: func(l *Loop, v *Virtual) {
			l.Start(tick)
			startAndRun(l, v)
		}, runs: 10, pending: 1},
		{name: "negative delay ends the chain", run: func(l *Loop, n int, _ uint64) time.Duration {
			if n == 3 {
				return -1
			}
			return tick
		}, runs: 3, pending: 0},
		{name: "start after a negative delay", run: func(l *Loop, n int, _ uint64) time.Duration {
			if n == 3 {
				return -1
			}
			return tick
		}, drive: func(l *Loop, v *Virtual) {
			startAndRun(l, v)
			startAndRun(l, v)
		}, runs: 13, pending: 1},
		{name: "stop inside a run", run: func(l *Loop, n int, _ uint64) time.Duration {
			if n == 3 {
				l.Stop()
			}
			return tick
		}, runs: 3, pending: 0},
		{name: "stop and start inside a run keep one chain", run: func(l *Loop, n int, epoch uint64) time.Duration {
			if n == 3 {
				l.Stop()
				l.Start(tick)
				if l.Current(epoch) {
					t.Error("a retired run's epoch is current")
				}
			}
			return tick
		}, runs: 10, pending: 1},
		{name: "stop between runs", drive: func(l *Loop, v *Virtual) {
			l.Start(tick)
			v.Advance(35 * time.Millisecond)
			l.Stop()
			l.Stop()
			v.Advance(65 * time.Millisecond)
		}, runs: 3, pending: 0},
		{name: "stop and start between runs", drive: func(l *Loop, v *Virtual) {
			l.Start(tick)
			v.Advance(35 * time.Millisecond)
			l.Stop()
			l.Start(tick)
			v.Advance(65 * time.Millisecond)
		}, runs: 9, pending: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVirtualAtZero()
			n := 0
			var l *Loop
			l = NewLoop(v, func(epoch uint64) time.Duration {
				n++
				if !l.Current(epoch) {
					t.Errorf("run %d began in a retired epoch", n)
				}
				if tc.run == nil {
					return tick
				}
				return tc.run(l, n, epoch)
			}, false)
			drive := tc.drive
			if drive == nil {
				drive = startAndRun
			}
			drive(l, v)
			if n != tc.runs {
				t.Errorf("%d runs, want %d", n, tc.runs)
			}
			if got := v.PendingTimers(); got != tc.pending {
				t.Errorf("%d timers pending, want %d", got, tc.pending)
			}
		})
	}
}

// handClock hands every timer to the test, which fires it when it likes:
// the window between a timer firing and its callback running, which the
// virtual clock never leaves open, stays open as long as the test wants.
type handClock struct {
	Real
	timers []*handTimer
}

type handTimer struct {
	f              func()
	fired, stopped bool
}

func (c *handClock) AfterFunc(_ time.Duration, f func()) Timer {
	t := &handTimer{f: f}
	c.timers = append(c.timers, t)
	return t
}

func (t *handTimer) Stop() bool {
	ok := !t.fired && !t.stopped
	t.stopped = true
	return ok
}

// TestLoopRetiresAFiredTimer: a timer that fired before Stop but runs its
// callback only after the next Start begins no run, and the live timer
// still does.
func TestLoopRetiresAFiredTimer(t *testing.T) {
	c := &handClock{}
	runs := 0
	l := NewLoop(c, func(uint64) time.Duration { runs++; return time.Second }, false)
	l.Start(time.Second)
	retired := c.timers[0]
	retired.fired = true
	l.Stop()
	l.Start(time.Second)
	retired.f()
	if runs != 0 {
		t.Fatalf("a timer retired by Stop ran the job")
	}
	live := c.timers[1]
	live.fired = true
	live.f()
	if runs != 1 || len(c.timers) != 3 {
		t.Fatalf("live timer: %d runs, %d timers armed, want 1 and 3", runs, len(c.timers))
	}
	next := c.timers[2]
	next.fired = true
	l.Stop()
	next.f()
	if runs != 1 || len(c.timers) != 3 {
		t.Fatalf("a run began after Stop returned: %d runs, %d timers armed", runs, len(c.timers))
	}
}

// TestLoopRunsNeverOverlap: a run on its own goroutine retired while it
// executes holds up the next epoch's first run until it ends.
func TestLoopRunsNeverOverlap(t *testing.T) {
	v := NewVirtualAtZero()
	entered := make(chan uint64, 2)
	release := make(chan struct{})
	var inRun atomic.Int32
	var l *Loop
	l = NewLoop(v, func(epoch uint64) time.Duration {
		if !inRun.CompareAndSwap(0, 1) {
			t.Error("two runs at once")
		}
		entered <- epoch
		<-release
		inRun.Store(0)
		return time.Second
	}, true)
	l.Start(10 * time.Millisecond)
	v.Advance(10 * time.Millisecond)
	first := <-entered
	l.Stop()
	l.Start(10 * time.Millisecond)
	v.Advance(10 * time.Millisecond) // the new epoch's timer fires mid-run
	if l.Current(first) {
		t.Fatal("a retired run's epoch is current")
	}
	select {
	case <-entered:
		t.Fatal("the next epoch's run began while the retired one executed")
	case <-time.After(20 * time.Millisecond):
	}
	release <- struct{}{}
	for v.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(0)
	second := <-entered
	if !l.Current(second) || second == first {
		t.Fatalf("held-up run: epoch %d (first %d) is not the live one", second, first)
	}
	l.Stop()
	close(release)
}

// TestLoopRealClock drives inline and goroutine loops on the wall clock
// from several goroutines at once (run it under -race): runs never overlap,
// and no run follows the last Stop.
func TestLoopRealClock(t *testing.T) {
	for _, spawn := range []bool{false, true} {
		var inRun atomic.Int32
		var runs atomic.Int64
		// Every seventh run restarts its own loop while churning is set; a
		// restart after the last Stop would rightly start a new chain.
		var restartMu sync.Mutex
		churning := true
		var l *Loop
		l = NewLoop(System, func(epoch uint64) time.Duration {
			if !inRun.CompareAndSwap(0, 1) {
				t.Error("two runs at once")
			}
			restartMu.Lock()
			if runs.Add(1)%7 == 0 && churning {
				l.Stop()
				l.Start(0)
			}
			restartMu.Unlock()
			inRun.Store(0)
			return 100 * time.Microsecond
		}, spawn)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					l.Start(time.Duration(i%3) * 50 * time.Microsecond)
					time.Sleep(50 * time.Microsecond)
					if i%4 == g {
						l.Stop()
					}
				}
			}()
		}
		wg.Wait()
		restartMu.Lock()
		churning = false
		restartMu.Unlock()
		l.Stop()
		time.Sleep(50 * time.Millisecond) // a run already past its check ends
		after := runs.Load()
		time.Sleep(20 * time.Millisecond)
		if got := runs.Load(); got != after {
			t.Fatalf("spawn=%v: %d runs after Stop", spawn, got-after)
		}
		if after == 0 {
			t.Fatalf("spawn=%v: no run at all", spawn)
		}
	}
}
