package rmi

import (
	"errors"
	"slices"
	"sync"
	"time"

	"wls/internal/metrics"
	"wls/internal/vclock"
)

// This file is a server's execute queue (§2.3): a gate the registry passes
// every non-system request through, on the goroutine that delivered it. At
// most a limit of admitted requests run at once; the rest wait in a
// bounded FIFO line, and a request that finds it full is denied — the TP
// monitor's "deny rather than degrade service". A line longer than the
// callers can fill degrades instead: every request waits its turn.
// SelfTuning moves the limit between Workers and tuneGrowth×Workers, one
// step every tuneInterval, the paper's need to "dynamically enlist
// computing resources to handle peak loads".

const (
	tuneGrowth   = 8
	tuneInterval = 5 * time.Millisecond
)

var (
	// ErrDenied is Admit's answer when the line is full.
	ErrDenied = errors.New("rmi: request denied (queue full)")
	// ErrQueueClosed is Admit's answer after Close.
	ErrQueueClosed = errors.New("rmi: execute queue closed")
	// errExpiredInQueue is Admit's answer when the budget runs out in line.
	errExpiredInQueue = errors.New("deadline expired in queue")
)

// QueueConfig tunes a Gate.
type QueueConfig struct {
	// Workers is how many admitted requests run at once (default 4).
	Workers int
	// QueueLen bounds the line (default 256).
	QueueLen int
	// SelfTuning raises the limit toward tuneGrowth×Workers while the
	// line is longer than the limit, and lowers it back to Workers when
	// the line is empty — the paper's self-tuning need.
	//
	//wls:nolint unreached -- library-only: §2.3, TestSelfTuningGrowsAndShrinks
	SelfTuning bool
}

// Gate is a server's execute queue. A request runs between a nil Admit and
// its Done.
type Gate struct {
	cfg   QueueConfig
	reg   *metrics.Registry
	tuner *vclock.Loop // tune every tuneInterval, with SelfTuning

	// Shedding must be observable (wlsadmin metrics, E25/E30): counters
	// are resolved once at construction so the per-request path is a bare
	// atomic increment.
	submitted *metrics.Counter
	accepted  *metrics.Counter
	denied    *metrics.Counter
	depth     *metrics.Gauge // requests in line

	mu      sync.Mutex
	limit   int // admitted requests that may run at once
	running int
	// line is non-empty only while running ≥ limit.
	line   []*waiter
	closed bool
}

// waiter is one request in line. Whoever takes it out of the line — Done
// handing it a slot, its budget running out, or Close — sets err and closes
// done, under Gate.mu, exactly once.
type waiter struct {
	err  error
	done chan struct{}
}

// NewGate builds a gate and, with SelfTuning, starts its tuner on clock.
func NewGate(cfg QueueConfig, clock vclock.Clock, reg *metrics.Registry) *Gate {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	g := &Gate{
		cfg:       cfg,
		reg:       reg,
		submitted: reg.Counter("queue.submitted"),
		accepted:  reg.Counter("queue.accepted"),
		denied:    reg.Counter("queue.denied"),
		depth:     reg.Gauge("queue.depth"),
		limit:     cfg.Workers,
	}
	g.tuner = vclock.NewLoop(clock, g.tune, false)
	if cfg.SelfTuning {
		g.tuner.Start(tuneInterval)
	}
	return g
}

// Admit waits until the request may run and returns nil; the caller then
// owes one Done. It refuses with ErrDenied at once when the line is full,
// with ErrQueueClosed after Close, and, when b runs out while the request
// is still in line, with "deadline expired in queue". A refused request
// never ran.
func (g *Gate) Admit(b Budget) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrQueueClosed
	}
	g.submitted.Inc()
	if g.running < g.limit {
		g.running++
		g.mu.Unlock()
		g.accepted.Inc()
		return nil
	}
	if len(g.line) >= g.cfg.QueueLen {
		g.mu.Unlock()
		g.denied.Inc()
		return ErrDenied
	}
	w := &waiter{done: make(chan struct{})}
	g.line = append(g.line, w)
	g.depth.Add(1)
	g.mu.Unlock()
	g.accepted.Inc()
	if b.Valid() {
		t := b.clock.AfterFunc(b.Remaining(), func() { g.leave(w) })
		defer t.Stop()
	}
	<-w.done
	return w.err
}

// Done gives an admitted request's slot back, to the head of the line.
func (g *Gate) Done() {
	g.mu.Lock()
	g.running--
	g.next()
	g.mu.Unlock()
}

// next admits from the head of the line while the limit has room. g.mu is
// held.
func (g *Gate) next() {
	for g.running < g.limit && len(g.line) > 0 {
		w := g.line[0]
		g.line[0] = nil
		g.line = g.line[1:]
		g.running++
		g.depth.Add(-1)
		close(w.done)
	}
}

// leave refuses w when its budget runs out, unless it has left the line
// already.
func (g *Gate) leave(w *waiter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := slices.Index(g.line, w); i >= 0 {
		g.line = slices.Delete(g.line, i, i+1)
		g.depth.Add(-1)
		w.err = errExpiredInQueue
		close(w.done)
	}
}

// tune raises the limit by one while the line is longer than the limit,
// lowers it by one while the line is empty, and runs again tuneInterval
// later.
func (g *Gate) tune(uint64) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return -1
	}
	switch backlog := len(g.line); {
	case backlog > g.limit && g.limit < tuneGrowth*g.cfg.Workers:
		g.limit++
		g.reg.Counter("queue.grown").Inc()
		g.next()
	case backlog == 0 && g.limit > g.cfg.Workers:
		g.limit--
		g.reg.Counter("queue.shrunk").Inc()
	}
	return tuneInterval
}

// Close refuses everyone in line and every later Admit. Requests already
// admitted run on; their Done still counts.
func (g *Gate) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	g.tuner.Stop()
	for _, w := range g.line {
		w.err = ErrQueueClosed
		close(w.done)
	}
	g.depth.Add(-int64(len(g.line)))
	g.line = nil
}
