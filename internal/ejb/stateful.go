package ejb

import (
	"context"
	"sync"
	"sync/atomic"

	"wls/internal/cluster"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/trace"
	"wls/internal/wire"
)

// DeltaPolicy controls when a stateful bean's primary ships state changes
// to its secondary (§3.2).
type DeltaPolicy int

// Delta policies.
const (
	// DeltaPerTx ships one delta at each transaction (here: method)
	// boundary — the scheme "originally developed for the Tandem NonStop
	// Kernel's process pairs", which "customers universally prefer".
	DeltaPerTx DeltaPolicy = iota
	// DeltaPerUpdate ships a delta on every state mutation — "the more
	// expensive option of sending deltas on every update".
	DeltaPerUpdate
)

// StatefulCtx is the view of conversational state a business method gets:
// the conversation's session record, which §3.2's one primary/secondary
// scheme keeps for stateful beans exactly as for HTTP sessions. It is valid
// while the method runs.
type StatefulCtx struct {
	ctx context.Context
	s   *servlet.Session
	ss  *statefulStore
}

// Get reads a state field.
//
//wls:nolint unreached -- library-only: §3.2, TestStatefulConversationKeepsState
func (sc *StatefulCtx) Get(key string) string { return sc.s.Get(key) }

// Set writes a state field. Under DeltaPerUpdate the change ships to the
// secondary immediately.
//
//wls:nolint unreached -- library-only: §3.2, TestStatefulConversationKeepsState
func (sc *StatefulCtx) Set(key, value string) {
	sc.s.Set(key, value)
	if sc.ss.spec.Deltas == DeltaPerUpdate {
		sc.ss.flush(sc.ctx, sc.s)
	}
}

// StatefulMethod is one business method of a stateful bean.
type StatefulMethod func(sc *StatefulCtx, args []byte) ([]byte, error)

// StatefulSpec declares a stateful session bean.
//
//wls:nolint unreached -- library-only: §3.2, TestStatefulConversationKeepsState
type StatefulSpec struct {
	// Name is the bean's clustered service name.
	Name string
	// Methods maps method names to implementations.
	Methods map[string]StatefulMethod
	// Deltas selects the replication policy (default DeltaPerTx).
	Deltas DeltaPolicy
}

// statefulStore is the per-server container state for one bean type. Its
// conversations are the records of sessions, a replicated session manager
// of the bean's own: created here, promoted where a handle fails over to,
// shipped through the manager's per-secondary batcher.
type statefulStore struct {
	c        *Container
	spec     StatefulSpec
	sessions *servlet.SessionManager
	turns    convTurns
	// spanNames precomputes "ejb <bean>.<method>" per declared method so
	// the invoke root does no per-call concatenation.
	spanNames map[string]string
	// Deploy-time-resolved counters (metric-name lookups allocate).
	calls, creates, replicaUpdates, promotions *metrics.Counter

	mu    sync.Mutex
	paged map[string]servlet.Parked // passivated conversations
	// dropShips injects the §3.2 anomaly in tests: the next N delta ships
	// are lost (primary dies between mutating memory and shipping).
	dropShips int
}

// DeployStateful deploys a stateful session bean and returns its home.
//
//wls:nolint unreached -- library-only: §3.2, TestStatefulConversationKeepsState
func (c *Container) DeployStateful(spec StatefulSpec) *StatefulHome {
	ss := &statefulStore{
		c:              c,
		spec:           spec,
		sessions:       servlet.NewReplicatedManager(c.registry, spec.Name),
		spanNames:      make(map[string]string, len(spec.Methods)),
		calls:          c.reg.Counter("ejb.stateful.calls"),
		creates:        c.reg.Counter("ejb.stateful.creates"),
		replicaUpdates: c.reg.Counter("ejb.stateful.replica_updates"),
		promotions:     c.reg.Counter("ejb.stateful.promotions"),
		turns:          convTurns{m: make(map[string]*convTurn)},
		paged:          make(map[string]servlet.Parked),
	}
	for name := range spec.Methods {
		ss.spanNames[name] = "ejb " + spec.Name + "." + name
	}
	c.mu.Lock()
	c.stateful[spec.Name] = ss
	c.mu.Unlock()

	c.registry.Register(&rmi.Service{
		Name: spec.Name,
		Methods: ss.sessions.ReplicaMethods(map[string]rmi.MethodSpec{
			"create": {Handler: ss.handleCreate},
			"invoke": {Handler: ss.handleInvoke},
			"remove": {Handler: ss.handleRemove},
		}),
	})
	return &StatefulHome{container: c, bean: spec.Name}
}

// reply ends a use of s with the envelope every stateful call answers with,
// written into the response: the current primary and secondary — so client
// handles rewrite themselves the way §3.2's session cookies do — then body.
func (ss *statefulStore) reply(call *rmi.Call, s *servlet.Session, body []byte) {
	e := call.Reply()
	e.String(ss.c.ServerName())
	e.String(ss.sessions.Close(s))
	e.Bytes2(body)
}

// handleCreate makes a new conversation on this server, its secondary
// seeded with the empty state, and answers its id; load balancing already
// happened when the home picked this server (§3.2).
func (ss *statefulStore) handleCreate(ctx context.Context, call *rmi.Call) ([]byte, error) {
	s, seeded := ss.sessions.Create(ctx)
	if seeded {
		ss.replicaUpdates.Inc()
	}
	ss.creates.Inc()
	ss.reply(call, s, []byte(s.ID))
	return nil, nil
}

// flush ships what s wrote since its last ship ("the primary ...
// synchronously transmits a delta for any updates to the secondary before
// returning the response") and counts the acknowledgement — unless an
// injected DropNextShips fault eats it.
func (ss *statefulStore) flush(ctx context.Context, s *servlet.Session) {
	ss.mu.Lock()
	drop := ss.dropShips > 0
	if drop {
		ss.dropShips--
	}
	ss.mu.Unlock()
	if !drop && ss.sessions.Flush(ctx, s) {
		ss.replicaUpdates.Inc()
	}
}

// handleInvoke runs a business method on the conversation's record,
// promoting a replica first when the handle failed over to this server
// (§3.2's promote-and-rewrite-cookie flow). Invocations of one conversation
// run one at a time. The id and method decode without copying — both
// resolve through no-alloc map lookups — and the payload aliases the frame
// body, valid for the call; the reply is written into the response envelope.
func (ss *statefulStore) handleInvoke(ctx context.Context, call *rmi.Call) ([]byte, error) {
	d := wire.NewDecoder(call.Args)
	idB := d.BytesNoCopy()
	methB := d.BytesNoCopy()
	payload := d.BytesNoCopy()
	if err := d.Err(); err != nil {
		return nil, err
	}
	impl, ok := ss.spec.Methods[string(methB)]
	if !ok {
		return nil, noSuch("method", string(methB))
	}
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		_, span = parent.NewChild(ctx, ss.spanNames[string(methB)], trace.KindInternal)
		defer span.Finish()
	}
	s, promoted := ss.sessions.Open(ctx, idB)
	if s == nil {
		if s, promoted = ss.activate(ctx, idB); s == nil {
			err := noSuch("bean", cluster.IDString(string(idB)))
			span.SetError(err)
			return nil, err
		}
	}
	if promoted {
		ss.promotions.Inc()
	}
	if span != nil {
		span.Annotate("bean", cluster.IDString(s.ID))
	}

	out, err := ss.run(ctx, s, impl, payload)
	if err != nil {
		ss.sessions.Close(s)
		span.SetError(err)
		return nil, err
	}
	ss.calls.Inc()
	ss.reply(call, s, out)
	return nil, nil
}

// run takes the conversation's turn and runs the method on its record,
// shipping what it wrote at the method boundary under DeltaPerTx.
func (ss *statefulStore) run(ctx context.Context, s *servlet.Session, impl StatefulMethod, args []byte) ([]byte, error) {
	turn, err := ss.turns.wait(ctx, s.ID)
	if err != nil {
		return nil, err
	}
	defer ss.turns.done(s.ID, turn)
	out, err := impl(&StatefulCtx{ctx: ctx, s: s, ss: ss}, args)
	if err == nil && ss.spec.Deltas == DeltaPerTx {
		ss.flush(ctx, s)
	}
	return out, err
}

// noSuch is the application error for an unknown method or bean.
func noSuch(what, name string) error {
	return &rmi.AppError{Msg: "no such " + what + ": " + name}
}

// activate reactivates a passivated conversation and opens it.
func (ss *statefulStore) activate(ctx context.Context, id []byte) (*servlet.Session, bool) {
	ss.mu.Lock()
	if p, ok := ss.paged[string(id)]; ok {
		ss.sessions.Unpark(p)
		delete(ss.paged, string(id))
	}
	ss.mu.Unlock()
	return ss.sessions.Open(ctx, id)
}

func (ss *statefulStore) handleRemove(ctx context.Context, call *rmi.Call) ([]byte, error) {
	d := wire.NewDecoder(call.Args)
	id := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	ss.sessions.Remove(id)
	ss.mu.Lock()
	delete(ss.paged, id)
	ss.mu.Unlock()
	return nil, nil
}

// convTurns gives each conversation one invocation at a time: a stateful
// bean serves one client, so a second call waits — within its deadline —
// for the first to finish and ship. An entry lives while a call runs or
// waits on it.
type convTurns struct {
	mu sync.Mutex
	m  map[string]*convTurn
}

// convTurn is one conversation's turn: the token is held by the running
// invocation; refs counts it and those waiting.
type convTurn struct {
	token chan struct{} // capacity 1
	refs  int           // guarded by convTurns.mu
}

func (ct *convTurns) wait(ctx context.Context, id string) (*convTurn, error) {
	ct.mu.Lock()
	t := ct.m[id]
	if t == nil {
		t = &convTurn{token: make(chan struct{}, 1)}
		ct.m[id] = t
	}
	t.refs++
	ct.mu.Unlock()
	select {
	case t.token <- struct{}{}:
		return t, nil
	case <-ctx.Done():
		ct.release(id, t)
		return nil, ctx.Err()
	}
}

func (ct *convTurns) done(id string, t *convTurn) {
	<-t.token
	ct.release(id, t)
}

func (ct *convTurns) release(id string, t *convTurn) {
	ct.mu.Lock()
	if t.refs--; t.refs == 0 {
		delete(ct.m, id)
	}
	ct.mu.Unlock()
}

// --- passivation (§3.2: "Conversational state may be paged out on an
// as-needed basis to free up memory ... the data is not expected to
// survive failures") -------------------------------------------------------

// PassivateIdle pages out primaries beyond maxResident (oldest IDs first —
// a stand-in for LRU). Replicas are never passivated.
//
//wls:nolint unreached -- library-only: §3.2, TestStatefulPassivationAndReactivation
func (ss *statefulStore) PassivateIdle(maxResident int) int {
	ids := ss.sessions.Primaries()
	if len(ids) <= maxResident {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	n := 0
	for _, id := range ids[:len(ids)-maxResident] {
		if p, ok := ss.sessions.Park(id); ok {
			ss.paged[id] = p
			n++
		}
	}
	return n
}

// Resident reports (in-memory, passivated) conversation counts; in memory
// counts primaries and replicas.
//
//wls:nolint unreached -- test hook: TestGateBeanFootprint
func (ss *statefulStore) Resident() (mem, paged int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sessions.ResidentSessions(), len(ss.paged)
}

// DropNextShips injects delta-ship loss for anomaly tests.
//
//wls:nolint unreached -- test hook: TestStatefulRollbackAnomaly
func (ss *statefulStore) DropNextShips(n int) {
	ss.mu.Lock()
	ss.dropShips = n
	ss.mu.Unlock()
}

// StatefulStore exposes the per-server container state for tests and
// benchmarks (passivation, fault injection).
//
//wls:nolint unreached -- test hook: TestStatefulRollbackAnomaly
func (c *Container) StatefulStore(bean string) interface {
	PassivateIdle(maxResident int) int
	Resident() (mem, paged int)
	DropNextShips(n int)
} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateful[bean]
}

// ---------------------------------------------------------------------------
// Client side

// StatefulHome creates conversations, load-balancing the create call.
type StatefulHome struct {
	container *Container
	bean      string
}

// Handle is the client-side reference to one conversation: hardwired to the
// primary, aware of the secondary, rewritten from every response envelope.
// One handle may be shared by goroutines, the way a cookie jar is.
type Handle struct {
	id     string
	member *cluster.Member
	// stub has no candidates of its own: every call names the members it
	// goes to, and the stub decides whether it may move on (§3.1).
	stub  *rmi.Stub
	route atomic.Pointer[[2]string] // primary, secondary; replaced whole
}

// Create starts a conversation on a server chosen by the stub policy
// (default: round robin with local preference — §3.2's "load balancing
// occurs when a (stateless) EJB home is chosen").
func (h *StatefulHome) Create(ctx context.Context, opts ...rmi.StubOption) (*Handle, error) {
	stub := h.container.StatelessStub(h.bean, opts...)
	res, err := stub.Invoke(ctx, "create", nil)
	if err != nil {
		return nil, err
	}
	hd := &Handle{
		member: h.container.member,
		stub:   rmi.NewStub(h.bean, h.container.registry.Node(), rmi.StaticView()),
	}
	hd.route.Store(new([2]string))
	id, err := hd.rewrite(res.Body)
	hd.id = string(id)
	return hd, err
}

// rewrite takes the routing header off a response envelope (the
// cookie-rewrite analogue) and returns the body, which aliases env.
func (h *Handle) rewrite(env []byte) ([]byte, error) {
	d := wire.NewDecoder(env)
	primary, secondary, body := d.BytesNoCopy(), d.BytesNoCopy(), d.BytesNoCopy()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if r := h.route.Load(); string(primary) != r[0] || string(secondary) != r[1] {
		h.route.Store(&[2]string{string(primary), string(secondary)})
	}
	return body, nil
}

// Primary reports the current primary of the replication pair.
func (h *Handle) Primary() string { return h.route.Load()[0] }

// Invoke calls a business method on the primary, failing over to the
// secondary when the primary is unreachable. Stateful methods are not
// idempotent: once the primary may have run the call, an error surfaces
// rather than a second run on the secondary.
func (h *Handle) Invoke(ctx context.Context, method string, args []byte) ([]byte, error) {
	r := h.route.Load()
	var pair [2]cluster.MemberInfo
	first := pair[:0]
	for _, server := range r {
		if info, ok := h.member.Lookup(server); ok {
			first = append(first, info)
		}
	}
	res, err := h.stub.InvokeVia(ctx, first, "invoke", func(e *wire.Encoder, _ string) {
		e.String(h.id)
		e.String(method)
		e.Bytes2(args)
	})
	if err != nil {
		return nil, err
	}
	return h.rewrite(res.Body)
}

// Remove ends the conversation.
func (h *Handle) Remove(ctx context.Context) error {
	info, ok := h.member.Lookup(h.Primary())
	if !ok {
		return nil
	}
	_, err := h.stub.InvokeVia(ctx, []cluster.MemberInfo{info}, "remove", func(e *wire.Encoder, _ string) {
		e.String(h.id)
	})
	return err
}
