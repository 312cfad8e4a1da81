// Package tx implements the distributed transaction infrastructure that the
// paper describes application servers extending "outward from backend
// databases": local transactions, two-phase commit across XA-style
// resources, a persistent coordinator log with recovery, and interposed
// (subordinate) branches on other servers reached over RMI.
//
// Design points taken from the paper:
//
//   - §3.1: the transaction layer records which servers a transaction has
//     touched so the RMI load balancer can "limit the spread of the
//     transaction" (see Tx.Servers and rmi.WithAffinity).
//   - §5.1: when all enlisted resources live in the same store, commit
//     degenerates to one phase — the benchmark E22 measures exactly the
//     2PC tax that co-locating message state with conversational state
//     eliminates.
//   - §2.3: gateways provide "a locus for interposed transactions"; the
//     Branch/remote-resource machinery plays that role between servers.
package tx

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/metrics"
	"wls/internal/trace"
	"wls/internal/vclock"
)

// ContextResource is an optional extension of Resource for participants
// that forward 2PC messages to other servers (RemoteBranch): the context
// carries the phase span so the message continues the trace on the
// participant. Resources that do local work only need not implement it.
type ContextResource interface {
	PrepareCtx(ctx context.Context, txID string) error
	CommitCtx(ctx context.Context, txID string) error
	RollbackCtx(ctx context.Context, txID string) error
}

// message is one 2PC verb in its two forms.
type message struct {
	verb   string
	plain  func(Resource, string) error
	traced func(ContextResource, context.Context, string) error
}

var (
	prepareMsg  = message{"prepare", Resource.Prepare, ContextResource.PrepareCtx}
	commitMsg   = message{"commit", Resource.Commit, ContextResource.CommitCtx}
	rollbackMsg = message{"rollback", Resource.Rollback, ContextResource.RollbackCtx}
)

// Resource is an XA-style transaction participant.
type Resource interface {
	// Prepare must durably stage the transaction's effects and vote. A nil
	// return is a yes vote; any error is a no vote.
	Prepare(txID string) error
	// Commit makes the staged effects visible. Commit must succeed
	// eventually once Prepare voted yes; the coordinator retries it during
	// recovery.
	Commit(txID string) error
	// Rollback discards staged effects.
	Rollback(txID string) error
}

// State is a transaction's lifecycle position.
type State int

// Transaction states.
const (
	StateActive State = iota
	StatePreparing
	StateCommitted
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StatePreparing:
		return "preparing"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors.
var (
	// ErrAborted is returned by Commit when the transaction rolled back.
	ErrAborted = errors.New("tx: transaction aborted")
	// ErrNotActive is returned when operating on a finished transaction.
	ErrNotActive = errors.New("tx: transaction not active")
	// ErrTimeout marks transactions rolled back by their deadline.
	ErrTimeout = errors.New("tx: transaction timed out")
)

// Manager coordinates transactions for one server.
type Manager struct {
	server string
	clock  vclock.Clock
	log    Log
	reg    *metrics.Registry

	// mu guards the transaction tables; state transitions annotate the
	// per-transaction trace span while it is held.
	//
	//wls:lockorder tx.Manager.mu<trace.Span.mu
	mu       sync.Mutex
	nextID   uint64
	active   map[string]*Tx
	branches map[string]*Branch

	// doneMu guards the done records waiting for the drainer (logDone).
	doneMu   sync.Mutex
	doneCond sync.Cond // on doneMu: the queue shrank, or the drainer exited
	doneQ    []string
	draining bool
	// drain is m.drainDone, built once: a go statement of a method value
	// allocates its closure every time the drainer starts.
	drain func()
}

// maxDoneBacklog bounds the done-record queue: committers wait when it is full.
const maxDoneBacklog = 1024

// NewManager creates a manager for the named server. log may be nil, in
// which case an in-memory log is used (recovery then only works within the
// process lifetime).
func NewManager(server string, clock vclock.Clock, log Log, reg *metrics.Registry) *Manager {
	if log == nil {
		log = NewMemLog()
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Manager{
		server: server,
		clock:  clock,
		log:    log,
		reg:    reg,
		active: make(map[string]*Tx),
	}
	m.doneCond.L = &m.doneMu
	m.drain = m.drainDone
	return m
}

// Begin starts a transaction coordinated by this server. A non-zero
// timeout schedules automatic rollback.
func (m *Manager) Begin(timeout time.Duration) *Tx {
	return m.BeginCtx(context.Background(), timeout)
}

// BeginCtx is Begin with a caller context. When ctx carries a trace span,
// the transaction runs under a child span and each 2PC phase message
// (prepare/commit/rollback per resource) becomes its own child — including
// the interposed branches driven over RMI, which continue the trace on the
// participant server.
func (m *Manager) BeginCtx(ctx context.Context, timeout time.Duration) *Tx {
	m.mu.Lock()
	m.nextID++
	buf := append(append(make([]byte, 0, 48), m.server...), "-tx-"...)
	id := string(strconv.AppendUint(buf, m.nextID, 10))
	t := &Tx{
		id:   id,
		mgr:  m,
		ctx:  ctx,
		done: make(chan struct{}),
	}
	t.resources = t.resBuf[:0]
	if parent := trace.FromContext(ctx); parent != nil {
		t.ctx, t.span = parent.NewChild(ctx, "tx "+id, trace.KindTx)
		t.span.Annotate("coordinator", m.server)
	}
	m.active[id] = t
	m.mu.Unlock()

	if timeout > 0 {
		// The timer field is read by Commit/Rollback on other goroutines,
		// and the callback can fire (via a concurrent clock Advance) before
		// Begin returns — both require the assignment to happen under t.mu.
		t.mu.Lock()
		t.timer = m.clock.AfterFunc(timeout, func() {
			t.mu.Lock()
			active := t.state == StateActive
			t.mu.Unlock()
			if active {
				t.timedOut.Store(true)
				_ = t.Rollback()
			}
		})
		t.mu.Unlock()
	}
	return t
}

func (m *Manager) finish(t *Tx) {
	m.mu.Lock()
	delete(m.active, t.id)
	m.mu.Unlock()
}

// Metrics returns the manager's metric registry.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Tx is one transaction, coordinated by the server that began it.
type Tx struct {
	id   string
	mgr  *Manager
	ctx  context.Context // from BeginCtx; carries span when traced
	span *trace.Span     // nil unless BeginCtx found a parent span

	mu        sync.Mutex
	state     State
	resources []enlisted  // frozen once the state leaves StateActive
	resBuf    [2]enlisted // backs resources for the common two-resource case
	// errBuf and phaseWG are the scratch of one 2PC phase (see phase);
	// the phases run one after another.
	errBuf   [2]error
	phaseWG  sync.WaitGroup
	servers  []string // touched, beyond the coordinator
	before   []func() error
	after    []func(committed bool)
	timer    vclock.Timer
	timedOut atomic.Bool
	done     chan struct{} // closed when the state becomes terminal
}

type enlisted struct {
	name string
	r    Resource
}

// ID returns the transaction identifier.
func (t *Tx) ID() string { return t.id }

// Enlist adds a resource under a unique name. Enlisting the same name
// twice is a no-op, so a resource touched repeatedly joins once.
func (t *Tx) Enlist(name string, r Resource) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateActive {
		return ErrNotActive
	}
	for _, e := range t.resources {
		if e.name == name {
			return nil
		}
	}
	t.resources = append(t.resources, enlisted{name, r})
	return nil
}

// TouchServer records that the transaction did work on the named server,
// feeding the RMI affinity policy.
func (t *Tx) TouchServer(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if name != t.mgr.server && !slices.Contains(t.servers, name) {
		t.servers = append(t.servers, name)
	}
}

// Servers lists the servers this transaction has touched, the coordinator
// first.
func (t *Tx) Servers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string{t.mgr.server}, t.servers...)
}

// BeforeCompletion registers a callback run before the prepare phase (the
// JTA Synchronization.beforeCompletion hook); an error aborts the commit.
// The EJB container uses this to flush dirty entity-bean state, and
// stateful-session replication uses it to ship its delta at the
// transaction boundary (§3.2).
func (t *Tx) BeforeCompletion(fn func() error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.before = append(t.before, fn)
}

// AfterCompletion registers a callback run once the outcome is decided.
// The EJB container uses it to broadcast cache-flush signals after commits
// that contained updates (§3.3).
func (t *Tx) AfterCompletion(fn func(committed bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.after = append(t.after, fn)
}

// phaseSpan returns the context a 2PC message for one resource should
// carry, opening a per-phase child span when the transaction is traced.
// The caller must Finish the returned span (nil when untraced; Span
// methods are nil-safe).
func (t *Tx) phaseSpan(verb, res string) (context.Context, *trace.Span) {
	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if t.span == nil {
		return ctx, nil
	}
	sp := t.span.Child("tx."+verb+" "+res, trace.KindTx)
	return trace.ContextWith(ctx, sp), sp
}

// waitOutcome blocks until the transaction reaches a terminal state and
// reports the actual outcome. A caller that lost the race for the
// Active→Preparing transition (e.g. Commit racing the timeout rollback, or
// two concurrent Commits) must not guess: the winning path may still commit
// or abort, and the loser's return value has to match reality.
func (t *Tx) waitOutcome() error {
	<-t.done
	t.mu.Lock()
	st := t.state
	t.mu.Unlock()
	if st == StateCommitted {
		return nil
	}
	if t.timedOut.Load() {
		return ErrTimeout
	}
	return ErrAborted
}

// Commit drives the transaction to completion: beforeCompletion hooks,
// prepare (skipped for a single resource — the one-phase optimization),
// a durable commit record, then commit on every resource.
// Each phase goes to all resources at once, so a two-phase commit waits
// for three flushes — prepares, decision record, commits — and returns only
// once every resource has answered: the reply never runs ahead of a flush.
func (t *Tx) Commit() error {
	t.mu.Lock()
	if t.state != StateActive {
		t.mu.Unlock()
		return t.waitOutcome()
	}
	before := t.before // append-only: a hook registering another hook appends past this view
	timer := t.timer
	t.mu.Unlock()

	if timer != nil {
		timer.Stop()
	}

	// JTA ordering: beforeCompletion runs while the transaction is still
	// active, so hooks (e.g. the EJB container flushing dirty entity
	// state) may enlist additional resources.
	for _, fn := range before {
		if err := fn(); err != nil {
			t.mu.Lock()
			if t.state != StateActive { // a concurrent path owns the outcome
				t.mu.Unlock()
				return t.waitOutcome()
			}
			resources := t.resources
			t.state = StatePreparing
			t.mu.Unlock()
			t.abort(resources)
			return fmt.Errorf("%w: beforeCompletion: %v", ErrAborted, err)
		}
	}

	t.mu.Lock()
	if t.state != StateActive { // a hook or a concurrent path finished it
		t.mu.Unlock()
		return t.waitOutcome()
	}
	t.state = StatePreparing
	resources := t.resources // Enlist refuses from here on: no copy needed
	t.mu.Unlock()

	m := t.mgr
	switch {
	case len(resources) > 1:
		m.reg.Counter("tx.2pc").Inc()
		t.span.Annotate("mode", "2pc")
		// Phase 1: every vote is in before anything is decided, so a no vote
		// never races a prepare in flight; it rolls back the yes voters too.
		if i, err := t.phase(prepareMsg, resources); err != nil {
			t.abort(resources)
			return fmt.Errorf("%w: %s voted no: %w", ErrAborted, resources[i].name, err)
		}
		// Decision point: durably record the commit.
		if err := m.log.Append(Record{TxID: t.id, Kind: RecordCommit}); err != nil {
			t.abort(resources)
			return fmt.Errorf("%w: commit record: %v", ErrAborted, err)
		}
		// Phase 2. After the decision is logged, failures are retried by
		// recovery, not reported as aborts; the done record follows only if
		// every resource committed, else Recover must re-drive the rest.
		_, err := t.phase(commitMsg, resources)
		if err == nil {
			m.logDone(t.id)
		}
		t.complete()
		if err != nil {
			return fmt.Errorf("tx: committed with in-doubt resource (recovery will retry): %v", err)
		}
		return nil
	case len(resources) == 1:
		// One-phase optimization: a single resource decides the outcome
		// itself, so a commit failure here is an abort, not an in-doubt
		// state — no decision was ever logged.
		m.reg.Counter("tx.1pc").Inc()
		t.span.Annotate("mode", "1pc")
		if err := t.send(commitMsg, resources[0]); err != nil {
			t.abort(resources)
			return fmt.Errorf("%w: %v", ErrAborted, err)
		}
	default:
		// No resources enlisted: nothing to prepare or commit. This is not
		// a one-phase commit; count it apart so the 1pc/2pc ratio stays an
		// honest measure of the co-location optimization (§5.1).
		m.reg.Counter("tx.0pc").Inc()
		t.span.Annotate("mode", "0pc")
	}
	t.complete()
	return nil
}

// phase sends one 2PC message to every resource at once — their flushes
// overlap into one wait — and, once all have answered, returns the first
// error in enlist order. The first resource is served on this goroutine.
func (t *Tx) phase(m message, resources []enlisted) (int, error) {
	errs := t.phaseErrs(len(resources))
	wg := &t.phaseWG // the price of the overlap: one closure per extra resource and phase
	wg.Add(len(resources) - 1)
	for i := 1; i < len(resources); i++ {
		go func() {
			defer wg.Done()
			errs[i] = t.send(m, resources[i])
		}()
	}
	errs[0] = t.send(m, resources[0])
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}

// phaseErrs returns n cleared error slots for one phase: the Tx's own for
// up to two resources.
func (t *Tx) phaseErrs(n int) []error {
	if n > len(t.errBuf) {
		return make([]error, n)
	}
	errs := t.errBuf[:n]
	clear(errs)
	return errs
}

// send delivers one 2PC message to one resource under its phase span.
func (t *Tx) send(m message, e enlisted) error {
	ctx, sp := t.phaseSpan(m.verb, e.name)
	var err error
	if cr, ok := e.r.(ContextResource); ok {
		err = m.traced(cr, ctx, t.id)
	} else {
		err = m.plain(e.r, t.id)
	}
	sp.SetError(err)
	sp.Finish()
	return err
}

// logDone queues the transaction's done record for the drainer — started
// by the first queued record, gone when the queue is empty — and does not
// wait for its flush: losing the record in a crash costs recovery one
// re-commit, idempotent by the Resource contract. Each record is still an
// Append of its own, in the order the transactions finished.
func (m *Manager) logDone(txID string) {
	m.doneMu.Lock()
	for len(m.doneQ) >= maxDoneBacklog {
		m.doneCond.Wait()
	}
	m.doneQ = append(m.doneQ, txID) // the drainer hands its emptied slices back
	if !m.draining {
		m.draining = true
		go m.drain()
	}
	m.doneMu.Unlock()
}

func (m *Manager) drainDone() {
	var batch []string
	m.doneMu.Lock()
	for len(m.doneQ) > 0 {
		batch, m.doneQ = m.doneQ, batch[:0]
		m.doneCond.Broadcast()
		m.doneMu.Unlock()
		for _, id := range batch {
			_ = m.log.Append(Record{TxID: id, Kind: RecordDone}) // see logDone
		}
		m.doneMu.Lock()
	}
	m.doneQ = batch[:0] // keep a backing array for the next burst
	m.draining = false
	m.doneCond.Broadcast()
	m.doneMu.Unlock()
}

// Drain waits until every done record queued so far is in the log: before
// reading the log back, and before closing it on shutdown.
func (m *Manager) Drain() {
	m.doneMu.Lock()
	for m.draining {
		m.doneCond.Wait()
	}
	m.doneMu.Unlock()
}

// complete finalizes a committed transaction and runs after hooks.
func (t *Tx) complete() {
	t.mu.Lock()
	t.state = StateCommitted
	after := t.after
	close(t.done)
	t.mu.Unlock()
	t.mgr.finish(t)
	t.mgr.reg.Counter("tx.committed").Inc()
	if t.span != nil {
		t.span.Annotate("outcome", "committed")
		t.span.Finish()
	}
	for _, fn := range after {
		fn(true)
	}
}

// Rollback aborts the transaction.
func (t *Tx) Rollback() error {
	t.mu.Lock()
	if t.state != StateActive {
		t.mu.Unlock()
		return ErrNotActive
	}
	t.state = StatePreparing
	resources := t.resources
	timer := t.timer
	t.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	t.abort(resources)
	return nil
}

// abort rolls every resource back and finishes the transaction as aborted,
// after a no vote, a failed hook, a timeout or the application's own
// Rollback.
func (t *Tx) abort(resources []enlisted) {
	for _, e := range resources {
		_ = t.send(rollbackMsg, e) // recorded on the phase span; the outcome is abort either way
	}
	t.mu.Lock()
	t.state = StateAborted
	after := t.after
	close(t.done)
	t.mu.Unlock()
	t.mgr.finish(t)
	t.mgr.reg.Counter("tx.aborted").Inc()
	if t.span != nil {
		t.span.Annotate("outcome", "aborted")
		t.span.Finish()
	}
	for _, fn := range after {
		fn(false)
	}
}

// InDoubtError is returned by Recover for transactions some resource did
// not re-commit: they get no done record, so a later Recover drives them.
type InDoubtError struct {
	IDs   []string // still in doubt, sorted
	Cause error    // the resource failures
}

func (e *InDoubtError) Error() string {
	return fmt.Sprintf("tx: still in doubt after recovery: %s: %v", strings.Join(e.IDs, ", "), e.Cause)
}

func (e *InDoubtError) Unwrap() error { return e.Cause }

// Recover replays the coordinator log: transactions with a commit record
// but no done record are re-committed against the resources supplied by
// name, and get their done record once every resource has committed. It
// returns the ids it completed; if a resource failed, the error is an
// *InDoubtError naming the transactions left for the next Recover.
//
//wls:nolint unreached -- item 11: recovery on restart replays the coordinator log through it
func (m *Manager) Recover(resources map[string]Resource) ([]string, error) {
	m.Drain() // this manager's own finished transactions are not in doubt
	recs, err := m.log.Records()
	if err != nil {
		return nil, err
	}
	inDoubt := map[string]bool{}
	for _, r := range recs {
		switch r.Kind {
		case RecordCommit:
			inDoubt[r.TxID] = true
		case RecordDone:
			delete(inDoubt, r.TxID)
		}
	}
	var done []string
	var left InDoubtError
	for id := range inDoubt {
		var failed error
		for _, r := range resources {
			failed = errors.Join(failed, r.Commit(id)) // idempotent by the Resource contract
		}
		if failed != nil {
			left.IDs = append(left.IDs, id)
			left.Cause = errors.Join(left.Cause, failed)
			continue
		}
		if err := m.log.Append(Record{TxID: id, Kind: RecordDone}); err != nil {
			return done, err
		}
		done = append(done, id)
	}
	sort.Strings(done)
	if left.IDs != nil {
		sort.Strings(left.IDs)
		return done, &left
	}
	return done, nil
}
