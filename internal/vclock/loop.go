package vclock

import (
	"sync"
	"time"
)

// Loop runs a periodic job on a Clock: heartbeats, lease renewal and the
// expiry sweep, log sniffing, store-and-forward drains, ETL, refreshes and
// retries all run on one. Its contract:
//
//   - Start(first) arms the first run first from now. On a started loop it
//     does nothing.
//   - Each run returns the delay before the next run. A negative delay ends
//     the chain until the next Start.
//   - Start and Stop each begin a new epoch, and a run is handed the epoch
//     it began in. A run that began in an older epoch arms nothing when it
//     ends; once Stop returns, no run begins; a run that works in steps
//     asks Current(epoch) between them whether it is still live.
//   - Runs never overlap: a timer that fires while a retired run still
//     executes starts its run when that one ends. mu is never held while a
//     run executes, so a run may stop and start its own loop.
//   - A timer retired after it fired is counted from Timer.Stop's false
//     result, and its callback only takes the count back; the callback is
//     one func built by NewLoop, so a steady loop allocates only its timers.
//
// Whether a run starts on its own goroutine is fixed by NewLoop. A job that
// makes RPCs takes its own, so the clock's goroutine never waits on the
// network; any other job runs on the timer's goroutine, which on a Virtual
// clock is inside Advance, so virtual time stays deterministic.
type Loop struct {
	clock Clock
	run   func(epoch uint64) time.Duration
	spawn bool
	fire  func() // l.fired, built once

	mu      sync.Mutex
	epoch   uint64
	running bool  // started, and the chain not ended by a negative delay
	timer   Timer // armed and not yet claimed by its callback
	stale   int   // retired timers that fired but whose callbacks have not run
	busy    bool  // a run is executing
	again   bool  // the live timer fired while a retired run was busy
}

// NewLoop returns a stopped loop that runs run on clock, each run on its
// own goroutine when spawn is set.
func NewLoop(clock Clock, run func(epoch uint64) time.Duration, spawn bool) *Loop {
	l := &Loop{clock: clock, run: run, spawn: spawn}
	l.fire = l.fired
	return l
}

// Start arms the first run first from now, in a new epoch, and returns the
// epoch. On a started loop it does nothing and returns the live epoch.
func (l *Loop) Start(first time.Duration) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.running {
		l.running = true
		l.epoch++
		l.timer = l.clock.AfterFunc(first, l.fire)
	}
	return l.epoch
}

// Stop begins a new epoch with no run armed. A run executing now finishes,
// but arms nothing, and Current reports its epoch retired.
func (l *Loop) Stop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.running, l.again = false, false
	l.epoch++
	if l.timer != nil {
		if !l.timer.Stop() {
			l.stale++
		}
		l.timer = nil
	}
}

// Current reports whether epoch is the live epoch of a started loop.
func (l *Loop) Current(epoch uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.running && epoch == l.epoch
}

// fired is every timer's callback: a retired timer's takes its count back,
// the live one's begins a run.
func (l *Loop) fired() {
	l.mu.Lock()
	if l.stale > 0 {
		l.stale--
		l.mu.Unlock()
		return
	}
	l.timer = nil
	if l.busy {
		l.again = true
		l.mu.Unlock()
		return
	}
	l.busy = true
	epoch := l.epoch
	l.mu.Unlock()
	if l.spawn {
		go l.exec(epoch)
	} else {
		l.exec(epoch)
	}
}

// exec runs the job, unless Stop retired epoch since the timer fired, and
// arms the next run.
func (l *Loop) exec(epoch uint64) {
	next := time.Duration(-1)
	if l.Current(epoch) {
		next = l.run(epoch)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.busy = false
	switch {
	case l.again:
		l.again = false
		l.timer = l.clock.AfterFunc(0, l.fire)
	case epoch != l.epoch:
	case next < 0:
		l.running = false
	default:
		l.timer = l.clock.AfterFunc(next, l.fire)
	}
}
