package chaostest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"wls/internal/jms"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/singleton"
	"wls/internal/tx"
	"wls/internal/webtier"
)

// ---------------------------------------------------------------------------
// Singleton ownership: at most one live owner, fencing epochs monotone.

type singletonWorkload struct {
	preferred []string
	hosts     map[string]*singleton.Host

	maxEpoch   uint64
	ownerAtMax string
}

func newSingletonWorkload() *singletonWorkload {
	return &singletonWorkload{hosts: map[string]*singleton.Host{}}
}

func (w *singletonWorkload) Name() string { return "singleton" }

func (w *singletonWorkload) Setup(h *Harness) error {
	for _, s := range h.Cluster.Servers {
		w.preferred = append(w.preferred, s.Name)
	}
	for _, s := range h.Cluster.Servers {
		w.install(h, s.Name)
	}
	return nil
}

func (w *singletonWorkload) install(h *Harness, name string) {
	host := h.Server(name).SingletonHost(singleton.Config{
		Service:   "chaos-leader",
		Preferred: w.preferred,
	}, singleton.Nop{})
	host.Start()
	w.hosts[name] = host
}

func (w *singletonWorkload) OnFault(h *Harness, s Step) {
	// A restart redeploys the candidacy on the server's fresh registry, as
	// a real reboot would. The old candidacy is stopped first so it
	// releases any lease it still holds instead of competing as a ghost.
	if s.Kind == OpRestart {
		if old := w.hosts[s.A]; old != nil {
			old.Stop()
		}
		w.install(h, s.A)
	}
}

func (w *singletonWorkload) Step(*Harness) {}

// owners returns the currently-active candidacies in name order.
func (w *singletonWorkload) owners() []string {
	var names []string
	for name := range w.hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		if w.hosts[name].Active() {
			out = append(out, name)
		}
	}
	return out
}

func (w *singletonWorkload) Check(h *Harness) {
	owners := w.owners()
	if len(owners) > 1 {
		h.Violatef("singleton: %d live owners at once: %v", len(owners), owners)
		return
	}
	if len(owners) != 1 {
		return // ownership gaps during faults are expected
	}
	owner := owners[0]
	ep := w.hosts[owner].Epoch()
	if ep == 0 {
		return // lost ownership between the two observations
	}
	switch {
	case ep < w.maxEpoch:
		h.Violatef("singleton: fencing epoch went backwards: %s has epoch %d after %s reached %d",
			owner, ep, w.ownerAtMax, w.maxEpoch)
	case ep == w.maxEpoch && w.ownerAtMax != "" && owner != w.ownerAtMax:
		h.Violatef("singleton: fencing epoch %d reused by %s (previously %s)", ep, owner, w.ownerAtMax)
	case ep > w.maxEpoch:
		w.maxEpoch, w.ownerAtMax = ep, owner
	}
}

func (w *singletonWorkload) Settled(*Harness) bool { return len(w.owners()) == 1 }

func (w *singletonWorkload) Quiesce(h *Harness) {
	owners := w.owners()
	if len(owners) != 1 {
		h.Violatef("singleton: %d live owners after quiescence (want exactly 1): %v", len(owners), owners)
	}
	w.Check(h)
}

func (w *singletonWorkload) Close() {
	for _, host := range w.hosts {
		host.Stop()
	}
}

// ---------------------------------------------------------------------------
// Transactions: no committed transaction lost or doubly applied.

// chaosResource is an XA participant whose commit path fails while the
// server it models is faulted, forcing in-doubt outcomes the coordinator
// must repair via Recover. It records enough history to detect outcome
// conflicts (commit after rollback and vice versa).
type chaosResource struct {
	name    string
	failing func() bool

	mu         sync.Mutex
	staged     map[string]bool
	committed  map[string]bool
	rolledBack map[string]bool
	conflicts  []string
}

func newChaosResource(name string, failing func() bool) *chaosResource {
	return &chaosResource{
		name:       name,
		failing:    failing,
		staged:     map[string]bool{},
		committed:  map[string]bool{},
		rolledBack: map[string]bool{},
	}
}

// stage marks a transaction as enlisted here (the durable staging a real
// resource performs as work arrives).
func (r *chaosResource) stage(txID string) {
	r.mu.Lock()
	r.staged[txID] = true
	r.mu.Unlock()
}

// Prepare implements tx.Resource; the vote is always yes — failures are
// injected at commit, where they leave the transaction in doubt.
func (r *chaosResource) Prepare(txID string) error { return nil }

// Commit implements tx.Resource.
func (r *chaosResource) Commit(txID string) error {
	r.mu.Lock()
	if r.committed[txID] || !r.staged[txID] {
		// Idempotent redo, or a recovery pass for a transaction that was
		// never enlisted here: nothing to (re)apply.
		r.mu.Unlock()
		return nil
	}
	if r.rolledBack[txID] {
		r.conflicts = append(r.conflicts, fmt.Sprintf("%s: commit of rolled-back tx %s", r.name, txID))
	}
	r.mu.Unlock()
	if r.failing() {
		return fmt.Errorf("chaos: resource %s unavailable", r.name)
	}
	r.mu.Lock()
	r.committed[txID] = true
	r.mu.Unlock()
	return nil
}

// Rollback implements tx.Resource.
func (r *chaosResource) Rollback(txID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.committed[txID] {
		r.conflicts = append(r.conflicts, fmt.Sprintf("%s: rollback after commit of tx %s", r.name, txID))
	}
	r.rolledBack[txID] = true
	return nil
}

func (r *chaosResource) isCommitted(txID string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed[txID]
}

func (r *chaosResource) takeConflicts() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.conflicts
	r.conflicts = nil
	return out
}

type txWorkload struct {
	rng  *rand.Rand
	mgr  *tx.Manager
	resA *chaosResource
	resB *chaosResource

	enlisted  map[string][]*chaosResource
	expect    map[string]bool // tx id → committed?
	abandoned []*tx.Tx
	flip      bool
}

func newTxWorkload(seed int64) *txWorkload {
	return &txWorkload{
		rng:      rand.New(rand.NewSource(seed + 101)),
		enlisted: map[string][]*chaosResource{},
		expect:   map[string]bool{},
	}
}

func (w *txWorkload) Name() string { return "tx" }

func (w *txWorkload) Setup(h *Harness) error {
	// The workload owns its coordinator and log: a chaos run models the
	// coordinator surviving while its resources come and go, so the log
	// must outlive simulated resource failures.
	w.mgr = tx.NewManager("chaos-tm", h.Cluster.Clock(), tx.NewMemLog(), metrics.NewRegistry())
	w.resA = newChaosResource("res-1", func() bool { return h.State.Faulted("server-1") })
	w.resB = newChaosResource("res-2", func() bool { return h.State.Faulted("server-2") })
	return nil
}

func (w *txWorkload) OnFault(*Harness, Step) {}

// record classifies a Commit result. Anything that is not ErrAborted and
// not ErrTimeout means the decision point was reached: the transaction
// committed (possibly with in-doubt resources recovery must re-drive).
func (w *txWorkload) record(t *tx.Tx, err error, res ...*chaosResource) {
	committed := err == nil || (!errors.Is(err, tx.ErrAborted) && !errors.Is(err, tx.ErrTimeout))
	w.expect[t.ID()] = committed
	w.enlisted[t.ID()] = res
}

func (w *txWorkload) enlist(h *Harness, t *tx.Tx, r *chaosResource) bool {
	r.stage(t.ID())
	if err := t.Enlist(r.name, r); err != nil {
		h.Violatef("tx: enlist %s in fresh tx %s failed: %v", r.name, t.ID(), err)
		return false
	}
	return true
}

func (w *txWorkload) Step(h *Harness) {
	switch w.rng.Intn(5) {
	case 0, 1: // two resources: full 2PC, in-doubt under resource failure
		t := w.mgr.Begin(10 * time.Second)
		if !w.enlist(h, t, w.resA) || !w.enlist(h, t, w.resB) {
			return
		}
		w.record(t, t.Commit(), w.resA, w.resB)
	case 2: // single resource: the one-phase optimization
		r := w.resA
		if w.flip {
			r = w.resB
		}
		w.flip = !w.flip
		t := w.mgr.Begin(10 * time.Second)
		if !w.enlist(h, t, r) {
			return
		}
		w.record(t, t.Commit(), r)
	case 3: // no resources: must commit trivially
		t := w.mgr.Begin(10 * time.Second)
		if err := t.Commit(); err != nil {
			h.Violatef("tx: zero-resource commit reported %v", err)
		}
	case 4: // abandoned: the deadline must roll it back
		t := w.mgr.Begin(100 * time.Millisecond)
		if !w.enlist(h, t, w.resA) {
			return
		}
		w.abandoned = append(w.abandoned, t)
		w.enlisted[t.ID()] = []*chaosResource{w.resA}
		w.expect[t.ID()] = false
	}
}

func (w *txWorkload) Check(h *Harness) {
	for _, c := range append(w.resA.takeConflicts(), w.resB.takeConflicts()...) {
		h.Violatef("tx: %s", c)
	}
}

func (w *txWorkload) Settled(*Harness) bool { return true }

func (w *txWorkload) Quiesce(h *Harness) {
	// Every abandoned transaction timed out long ago; a late Commit must
	// report that outcome, not resurrect the transaction.
	for _, t := range w.abandoned {
		if err := t.Commit(); err == nil {
			h.Violatef("tx: abandoned tx %s committed after its timeout", t.ID())
		}
	}
	// All resources are healthy again: recovery must re-drive every
	// in-doubt transaction to completion.
	if _, err := w.mgr.Recover(map[string]tx.Resource{"res-1": w.resA, "res-2": w.resB}); err != nil {
		h.Violatef("tx: recover failed: %v", err)
	}
	ids := make([]string, 0, len(w.expect))
	for id := range w.expect {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, r := range w.enlisted[id] {
			switch got := r.isCommitted(id); {
			case w.expect[id] && !got:
				h.Violatef("tx: committed tx %s lost at %s after recovery", id, r.name)
			case !w.expect[id] && got:
				h.Violatef("tx: aborted tx %s applied at %s", id, r.name)
			}
		}
	}
	w.Check(h)
}

func (w *txWorkload) Close() {}

// ---------------------------------------------------------------------------
// JMS store-and-forward: exactly-once delivery.

type jmsWorkload struct {
	seed int64
	seq  int
	sent []string

	outQ *jms.Queue
	fwd  *jms.Forwarder
}

func newJMSWorkload(seed int64) *jmsWorkload { return &jmsWorkload{seed: seed} }

func (w *jmsWorkload) Name() string { return "jms-saf" }

func (w *jmsWorkload) Setup(h *Harness) error {
	w.startForwarder(h)
	return nil
}

// startForwarder (re)creates the SAF agent on server-1's current broker,
// draining the chaos-out buffer into server-2's chaos-in queue.
func (w *jmsWorkload) startForwarder(h *Harness) {
	s1 := h.Server("server-1")
	w.outQ = s1.JMS.Queue("chaos-out")
	w.fwd = jms.NewForwarder(w.outQ, s1.Node(), h.Server("server-2").Addr(), "chaos-in",
		h.Cluster.Clock(), 50*time.Millisecond)
	w.fwd.Start()
}

func (w *jmsWorkload) OnFault(h *Harness, s Step) {
	if s.A != "server-1" {
		return
	}
	switch s.Kind {
	case OpCrash:
		// The forwarding process died with its server. Unforwarded and
		// unacked messages persist in the server's store.
		w.fwd.Stop()
	case OpRestart:
		// Redeploy the agent on the recovered broker; the new queue object
		// rebuilds the backlog (including in-flight-at-crash messages) from
		// the store, and the receiver's dedup table absorbs redelivery.
		w.startForwarder(h)
	}
}

func (w *jmsWorkload) Step(h *Harness) {
	if h.State.Down["server-1"] || h.State.Frozen["server-1"] {
		return // the producer lives on server-1
	}
	// IDs are assigned by the workload (a producer-side sequence) so they
	// stay unique across broker restarts, which reset the broker's own
	// ID counter.
	id := fmt.Sprintf("chaos-%d-m%05d", w.seed, w.seq)
	w.seq++
	if _, err := w.outQ.Send(jms.Message{ID: id, Key: id, Body: []byte(id)}); err != nil {
		h.Violatef("jms: send %s failed: %v", id, err)
		return
	}
	w.sent = append(w.sent, id)
}

func (w *jmsWorkload) Check(*Harness) {}

func (w *jmsWorkload) Settled(h *Harness) bool {
	return w.outQ.Len() == 0 &&
		h.Server("server-2").JMS.Queue("chaos-in").Len() >= len(w.sent)
}

func (w *jmsWorkload) Quiesce(h *Harness) {
	if n := w.outQ.Len(); n != 0 {
		h.Violatef("jms: SAF backlog not drained after quiescence: %d messages left", n)
	}
	inQ := h.Server("server-2").JMS.Queue("chaos-in")
	seen := map[string]int{}
	for {
		m, err := inQ.Receive()
		if err != nil {
			break
		}
		seen[m.ID]++
		if err := inQ.Ack(m.ID); err != nil {
			h.Violatef("jms: ack %s failed: %v", m.ID, err)
		}
	}
	for _, id := range w.sent {
		switch n := seen[id]; {
		case n == 0:
			h.Violatef("jms: message %s lost", id)
		case n > 1:
			h.Violatef("jms: message %s delivered %d times", id, n)
		}
		delete(seen, id)
	}
	for id, n := range seen {
		h.Violatef("jms: unexpected message %s delivered %d times", id, n)
	}
}

func (w *jmsWorkload) Close() { w.fwd.Stop() }

// ---------------------------------------------------------------------------
// Replicated sessions: the counter survives any single failure.

type sessionWorkload struct {
	handler servlet.HandlerFunc
	proxy   *webtier.ProxyPlugin

	cookie    string
	expected  int
	lastP     string
	lastS     string
	lostP     bool
	lostS     bool
	lastTopo  time.Duration
	everAsked bool
}

func newSessionWorkload() *sessionWorkload { return &sessionWorkload{} }

func (w *sessionWorkload) Name() string { return "session" }

func (w *sessionWorkload) Setup(h *Harness) error {
	w.handler = func(r *servlet.Request) servlet.Response {
		n, _ := strconv.Atoi(r.Session.Get("n"))
		n++
		r.Session.Set("n", strconv.Itoa(n))
		return servlet.Response{Status: 200, Body: []byte(strconv.Itoa(n))}
	}
	for _, s := range h.Cluster.Servers {
		s.Web.Handle("/chaos/count", w.handler)
	}
	// The router uses the admin server's membership view: the admin is
	// never faulted, so the proxy's picture of the cluster converges the
	// way a healthy presentation tier's would.
	node := h.Cluster.Net().Endpoint("10.0.99.1:80")
	w.proxy = webtier.NewProxyPlugin(node, rmi.MemberView{Member: h.Cluster.Admin.Member()}, nil)
	// The session starts on server-1, the primary the checks begin from.
	w.cookie = servlet.Cookie{Primary: "server-1"}.Encode()
	w.lastP = "server-1"
	return nil
}

func (w *sessionWorkload) OnFault(h *Harness, s Step) {
	switch s.Kind {
	case OpCrash:
		// A crash wipes the server's in-memory session copies.
		if s.A == w.lastP {
			w.lostP = true
		}
		if s.A == w.lastS {
			w.lostS = true
		}
		w.lastTopo = h.at
	case OpRestart:
		// Redeploy the servlet on the fresh engine.
		h.Server(s.A).Web.Handle("/chaos/count", w.handler)
		w.lastTopo = h.at
	case OpFreeze, OpThaw, OpFence, OpUnfence:
		w.lastTopo = h.at
	}
}

// request performs one proxied increment and validates counter
// continuity. Transient routing errors are tolerated (both replicas may
// momentarily be unreachable); a successful response must either continue
// the counter or be a forgiven restart after both replicas were lost.
func (w *sessionWorkload) request(h *Harness, strict bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	resp, err := w.proxy.Route(ctx, "/chaos/count", w.cookie, nil)
	cancel()
	if err != nil {
		if strict {
			h.Violatef("session: request failing after quiescence: %v", err)
		}
		return
	}
	if resp.Status != 200 {
		h.Violatef("session: status %d from %s", resp.Status, resp.ServedBy)
		return
	}
	n, convErr := strconv.Atoi(string(resp.Body))
	if convErr != nil {
		h.Violatef("session: bad counter body %q from %s", resp.Body, resp.ServedBy)
		return
	}
	want := w.expected + 1
	if n != want {
		if n < want && w.lostP && w.lostS {
			// Both replicas were lost since the last success: the paper's
			// in-memory sessions only promise to survive one failure, so a
			// fresh counter is the correct outcome, not a violation.
		} else {
			h.Violatef("session: counter got %d want %d (served by %s, replica loss primary=%v secondary=%v)",
				n, want, resp.ServedBy, w.lostP, w.lostS)
		}
	}
	w.expected = n
	w.cookie = resp.Cookie
	if c, err := servlet.DecodeCookie(resp.Cookie); err == nil {
		w.lastP, w.lastS = c.Primary, c.Secondary
	}
	w.lostP = false
	// A session without a secondary has a single copy: count the replica
	// as already lost so a primary crash is forgiven.
	w.lostS = w.lastS == ""
	w.everAsked = true
}

func (w *sessionWorkload) Step(h *Harness) {
	// Freezes, fences and partitions blackhole traffic without closing
	// endpoints; replication ships would block on them indefinitely, so no
	// requests are issued while the network is ambiguous. A short quiet
	// window after topology changes keeps ships from chasing a view that
	// still lists a dead secondary.
	if h.State.NetAmbiguous() || h.at-w.lastTopo < 400*time.Millisecond {
		return
	}
	w.request(h, false)
}

func (w *sessionWorkload) Check(*Harness) {}

func (w *sessionWorkload) Settled(*Harness) bool { return true }

func (w *sessionWorkload) Quiesce(h *Harness) {
	w.request(h, true)
	if !w.everAsked {
		h.Violatef("session: no request ever succeeded")
	}
}

func (w *sessionWorkload) Close() {}
