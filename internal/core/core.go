// Package core ties the substrates together into the paper's central
// abstraction: the four types of clustered services of §3 — stateless,
// conversational, cached, and singleton — "that differ in the way they
// manage state in memory and on disk", deployed into an application server
// that composes clustering, RMI, transactions, the EJB container, the
// servlet engine, messaging, Web Services, and the middle-tier persistence
// layer.
//
// It also carries the §2.3 runtime machinery that distinguishes
// application servers from statically configured TP monitors:
//
//   - ExecuteQueue: the request execution pool, with the "deny rather than
//     degrade service" admission policy of TP monitors and the
//     self-tuning alternative the paper says application servers need to
//     "dynamically enlist computing resources to handle peak loads";
//   - MigratableTarget (§3.4): "services may be deployed into named
//     targets, each of which is migrated as a unit so that service
//     co-location can be maintained".
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wls/internal/metrics"
	"wls/internal/singleton"
	"wls/internal/vclock"
)

// ServiceKind classifies a clustered service by how it manages state (§3).
type ServiceKind int

// The four types of clustered services.
const (
	// Stateless services keep no state between invocations; scalability
	// and availability come from deploying instances everywhere (§3.1).
	Stateless ServiceKind = iota
	// Conversational services are earmarked for one client's session and
	// keep its state in memory, replicated primary/secondary (§3.2).
	Conversational
	// Cached services keep shared data in memory to satisfy reads, with
	// configurable consistency against the backend (§3.3).
	Cached
	// Singleton services are active on at most/exactly one server and own
	// private persistent data (§3.4).
	Singleton
)

func (k ServiceKind) String() string {
	switch k {
	case Stateless:
		return "stateless"
	case Conversational:
		return "conversational"
	case Cached:
		return "cached"
	case Singleton:
		return "singleton"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ---------------------------------------------------------------------------
// Execute queues and admission (§2.3)

// AdmissionPolicy selects overload behaviour.
type AdmissionPolicy int

// Admission policies.
const (
	// Degrade accepts every request; under overload, queueing time grows.
	Degrade AdmissionPolicy = iota
	// Deny rejects requests when the queue is full — the TP-monitor
	// policy suited to well-provisioned, predictable workloads.
	Deny
)

// ErrDenied is returned by Submit under the Deny policy when the queue is
// full.
var ErrDenied = errors.New("core: request denied (queue full)")

// ErrQueueClosed is returned after Close.
var ErrQueueClosed = errors.New("core: execute queue closed")

// QueueConfig tunes an ExecuteQueue.
type QueueConfig struct {
	// Workers is the initial worker count (default 4).
	Workers int
	// QueueLen bounds waiting requests (default 256).
	QueueLen int
	// Policy selects Deny vs Degrade.
	Policy AdmissionPolicy
	// SelfTuning lets the pool grow toward MaxWorkers while the queue has
	// backlog, and shrink back when idle — the paper's self-tuning need.
	SelfTuning bool
	// MaxWorkers caps self-tuning growth (default 4×Workers).
	MaxWorkers int
	// TuneInterval is how often the tuner adjusts (default 100ms).
	TuneInterval time.Duration
}

// ExecuteQueue is a server's request execution pool.
type ExecuteQueue struct {
	cfg   QueueConfig
	clock vclock.Clock
	reg   *metrics.Registry

	// Shedding must be observable (wlsadmin metrics, E25/E30): counters
	// are resolved once at construction so the per-submit path is a bare
	// atomic increment.
	submitted *metrics.Counter
	accepted  *metrics.Counter
	denied    *metrics.Counter
	depth     *metrics.Gauge // queued-but-unstarted tasks

	tasks chan func()

	mu      sync.Mutex
	workers int
	stops   []chan struct{}
	closed  bool
	tuner   vclock.Timer
}

// NewExecuteQueue builds and starts a pool.
func NewExecuteQueue(cfg QueueConfig, clock vclock.Clock, reg *metrics.Registry) *ExecuteQueue {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = cfg.Workers * 4
	}
	if cfg.TuneInterval <= 0 {
		cfg.TuneInterval = 100 * time.Millisecond
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	q := &ExecuteQueue{
		cfg:       cfg,
		clock:     clock,
		reg:       reg,
		submitted: reg.Counter("queue.submitted"),
		accepted:  reg.Counter("queue.accepted"),
		denied:    reg.Counter("queue.denied"),
		depth:     reg.Gauge("queue.depth"),
		tasks:     make(chan func(), cfg.QueueLen),
	}
	for i := 0; i < cfg.Workers; i++ {
		q.addWorker()
	}
	if cfg.SelfTuning {
		q.scheduleTune()
	}
	return q
}

func (q *ExecuteQueue) addWorker() {
	stop := make(chan struct{})
	q.mu.Lock()
	q.workers++
	q.stops = append(q.stops, stop)
	q.mu.Unlock()
	go func() {
		for {
			select {
			case task, ok := <-q.tasks:
				if !ok {
					return
				}
				q.depth.Add(-1)
				task()
			case <-stop:
				return
			}
		}
	}()
}

func (q *ExecuteQueue) removeWorker() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.stops) == 0 || q.workers <= q.cfg.Workers {
		return
	}
	stop := q.stops[len(q.stops)-1]
	q.stops = q.stops[:len(q.stops)-1]
	q.workers--
	close(stop)
}

// Submit enqueues work. Under Deny it fails fast when the queue is full;
// under Degrade it blocks until there is room.
func (q *ExecuteQueue) Submit(task func()) error {
	q.mu.Lock()
	closed := q.closed
	q.mu.Unlock()
	if closed {
		return ErrQueueClosed
	}
	q.submitted.Inc()
	// The depth gauge tracks waiting work (including Degrade submitters
	// blocked on a full queue): +1 before the enqueue attempt, -1 when a
	// worker dequeues the task or the submit is denied.
	q.depth.Add(1)
	if q.cfg.Policy == Deny {
		select {
		case q.tasks <- task:
			q.accepted.Inc()
			return nil
		default:
			q.depth.Add(-1)
			q.denied.Inc()
			return ErrDenied
		}
	}
	q.tasks <- task
	q.accepted.Inc()
	return nil
}

// Workers reports the current pool size.
func (q *ExecuteQueue) Workers() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.workers
}

// Backlog reports queued (unstarted) tasks.
func (q *ExecuteQueue) Backlog() int { return len(q.tasks) }

// scheduleTune periodically grows the pool while there is backlog and
// shrinks it when idle.
func (q *ExecuteQueue) scheduleTune() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.tuner = q.clock.AfterFunc(q.cfg.TuneInterval, func() {
		backlog := q.Backlog()
		switch {
		case backlog > q.Workers() && q.Workers() < q.cfg.MaxWorkers:
			q.addWorker()
			q.reg.Counter("queue.grown").Inc()
		case backlog == 0 && q.Workers() > q.cfg.Workers:
			q.removeWorker()
			q.reg.Counter("queue.shrunk").Inc()
		}
		q.scheduleTune()
	})
	q.mu.Unlock()
}

// Close stops accepting work; queued tasks still run. The task channel is
// deliberately never closed: a Submit racing Close must fail with
// ErrQueueClosed (or at worst enqueue a task the drain below picks up),
// never panic on a closed channel — the RMI registry submits from
// transport goroutines that cannot be quiesced first.
func (q *ExecuteQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	t := q.tuner
	q.tuner = nil
	stops := q.stops
	q.stops = nil
	q.workers = 0
	q.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	for _, s := range stops {
		close(s)
	}
	// Drain what the workers left behind: an accepted task may have a
	// transport goroutine blocked on its completion.
	for {
		select {
		case task := <-q.tasks:
			q.depth.Add(-1)
			task()
		default:
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Migratable targets (§3.4)

// MigratableTarget groups services that must live together; the group
// activates and deactivates as a unit on whichever server owns its lease.
type MigratableTarget struct {
	Name     string
	services []namedService
}

type namedService struct {
	name string
	impl singleton.Activatable
}

// NewMigratableTarget creates an empty target.
func NewMigratableTarget(name string) *MigratableTarget {
	return &MigratableTarget{Name: name}
}

// Add places a service in the target. Order matters: activation runs in
// Add order, deactivation in reverse.
func (t *MigratableTarget) Add(name string, impl singleton.Activatable) *MigratableTarget {
	t.services = append(t.services, namedService{name, impl})
	return t
}

// Services lists the co-located service names.
func (t *MigratableTarget) Services() []string {
	out := make([]string, 0, len(t.services))
	for _, s := range t.services {
		out = append(out, s.name)
	}
	return out
}

// Activate implements singleton.Activatable for the whole unit: all
// services activate or none do.
func (t *MigratableTarget) Activate(epoch uint64) error {
	for i, s := range t.services {
		if err := s.impl.Activate(epoch); err != nil {
			for j := i - 1; j >= 0; j-- {
				t.services[j].impl.Deactivate()
			}
			return fmt.Errorf("core: target %s: service %s: %w", t.Name, s.name, err)
		}
	}
	return nil
}

// Deactivate implements singleton.Activatable.
func (t *MigratableTarget) Deactivate() {
	for i := len(t.services) - 1; i >= 0; i-- {
		t.services[i].impl.Deactivate()
	}
}
