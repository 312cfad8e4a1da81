// Package servlet implements the web-tier pieces of §3.2 and §3.3: a
// servlet engine whose in-memory session state is made highly available by
// primary/secondary replication, the cookie protocol that lets the
// presentation tier route to the right server, and the JSP page/fragment
// cache.
//
// The three session-state options of §3.2 are all implemented:
//
//   - SessionsReplicated (default): state stays in memory on the primary,
//     which "synchronously transmits a delta for any updates to the
//     secondary before returning the response to the client"; the cookie
//     carries the identities of both.
//   - SessionsPersistent: state is written to shared storage between
//     invocations, "in which case the service is stateless".
//   - SessionsClientCookie: state is "sent back and forth between the
//     client and server under the covers", again yielding a stateless
//     service.
package servlet

import (
	"context"
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wls/internal/cluster"
	"wls/internal/partition"
	"wls/internal/rmi"
	"wls/internal/store"
	"wls/internal/trace"
	"wls/internal/wire"
)

// SessionMode selects where session state lives between requests (§3.2).
type SessionMode int

// Session modes.
const (
	SessionsReplicated SessionMode = iota
	SessionsPersistent
	SessionsClientCookie
)

// Cookie is the parsed session cookie. For replicated sessions it embeds
// the primary and secondary ("the hosting server embed[s] its location in a
// session cookie that the client returns with each new request"); for
// client-state sessions it carries the state itself.
type Cookie struct {
	ID        string
	Primary   string
	Secondary string
	State     map[string]string // SessionsClientCookie only

	// raw is the encoded string this cookie was decoded from (set by the
	// decode cache), letting hot paths that need the string form back —
	// e.g. the webtier's response decode — reuse the canonical copy.
	raw string
}

// Encode serializes the cookie to its wire string.
func (c Cookie) Encode() string {
	e := wire.MakeEncoder(64)
	e.String(c.ID)
	e.String(c.Primary)
	e.String(c.Secondary)
	e.Int(len(c.State))
	for k, v := range c.State {
		e.String(k)
		e.String(v)
	}
	return base64.RawURLEncoding.EncodeToString(e.Bytes())
}

// cookieCache memoizes DecodeCookie. Decoding is a pure function of the
// cookie string, a session's cookie repeats on every request of that
// session, and decoding costs base64 plus several field copies — so the
// steady state should be one map lookup and zero allocations. Only
// state-less cookies are cached (replicated/persistent modes); client-state
// cookies change whenever the session data does and would only churn the
// cache. The cache is dropped wholesale when full, like wire.Interner.
var cookieCache = struct {
	sync.RWMutex
	m map[string]Cookie
}{m: make(map[string]Cookie)}

const cookieCacheMax = 4096

func cachedCookie(s string) (Cookie, bool) {
	cookieCache.RLock()
	c, ok := cookieCache.m[s]
	cookieCache.RUnlock()
	return c, ok
}

// cacheCookie records a decoded (or just-encoded) state-less cookie.
func cacheCookie(s string, c Cookie) {
	if c.State != nil || s == "" {
		return
	}
	c.raw = s
	cookieCache.Lock()
	if len(cookieCache.m) >= cookieCacheMax {
		cookieCache.m = make(map[string]Cookie, cookieCacheMax/4)
	}
	cookieCache.m[s] = c
	cookieCache.Unlock()
}

// DecodeCookie parses a cookie string ("" yields a zero cookie).
func DecodeCookie(s string) (Cookie, error) {
	if s == "" {
		return Cookie{}, nil
	}
	if c, ok := cachedCookie(s); ok {
		return c, nil
	}
	c, err := decodeCookieSlow(s)
	if err == nil {
		cacheCookie(s, c)
	}
	return c, err
}

// DecodeCookieBytes is DecodeCookie for a cookie still sitting in a wire
// buffer: the cache hit path performs a no-allocation lookup keyed on the
// raw bytes, so the RMI surface never materializes the cookie string on
// repeat requests.
func DecodeCookieBytes(b []byte) (Cookie, error) {
	if len(b) == 0 {
		return Cookie{}, nil
	}
	cookieCache.RLock()
	c, ok := cookieCache.m[string(b)] // compiler-recognized no-alloc lookup
	cookieCache.RUnlock()
	if ok {
		return c, nil
	}
	s := string(b)
	c, err := decodeCookieSlow(s)
	if err == nil {
		cacheCookie(s, c)
	}
	return c, err
}

func decodeCookieSlow(s string) (Cookie, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Cookie{}, err
	}
	d := wire.NewDecoder(raw)
	c := Cookie{ID: d.String(), Primary: d.String(), Secondary: d.String()}
	n := d.Int()
	if err := d.Err(); err != nil {
		return Cookie{}, err
	}
	if n > 0 {
		c.State = make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := d.String()
			v := d.String()
			c.State[k] = v
		}
	}
	return c, d.Err()
}

// Session is the request-scoped view of one browser session's state.
//
// Sessions are pooled by the engine: a servlet must not retain the *Session
// past the end of its HandlerFunc (copy attribute values out if they must
// outlive the request).
//
//wls:pooled
type Session struct {
	ID    string
	data  map[string]string
	dirty map[string]bool
	isNew bool
}

// sessionPool recycles the request-scoped Session view (the struct and its
// dirty-key map; the attribute data map belongs to the engine-resident
// state, not to the view).
var sessionPool = sync.Pool{
	New: func() any { return &Session{dirty: make(map[string]bool, 4)} },
}

func acquireSession(id string, data map[string]string, isNew bool) *Session {
	s := sessionPool.Get().(*Session)
	s.ID, s.data, s.isNew = id, data, isNew
	return s
}

func releaseSession(s *Session) {
	for k := range s.dirty {
		delete(s.dirty, k)
	}
	s.ID, s.data, s.isNew = "", nil, false
	sessionPool.Put(s)
}

// Get reads a session attribute.
func (s *Session) Get(key string) string { return s.data[key] }

// Set writes a session attribute.
func (s *Session) Set(key, value string) {
	s.data[key] = value
	s.dirty[key] = true
}

// IsNew reports whether the session was created by this request.
func (s *Session) IsNew() bool { return s.isNew }

// Len returns the number of attributes.
func (s *Session) Len() int { return len(s.data) }

// sessState is the engine-resident state of one session.
type sessState struct {
	id        string
	data      map[string]string
	secondary string
	primary   bool
	gen       uint64

	// cookie caches the encoded response cookie, valid while the session's
	// secondary stays cookieSec and this server stays primary. Encoding
	// (and its base64) happens only when the topology changes.
	cookie    string
	cookieSec string

	// epoch is the partition-ring epoch this session's placement was last
	// checked against (0 = never ring-placed). Atomic because the admin
	// stats scan reads it while the request path stamps it.
	epoch atomic.Uint64
}

// SessionManager holds one engine's sessions and implements the §3.2
// replication and failover flows.
type SessionManager struct {
	mode    SessionMode
	service string // the engine's RMI service name, for replica traffic
	member  *cluster.Member
	node    rmi.Node
	db      *store.Store // SessionsPersistent only

	// selfName/selfMachine cache the (immutable) local identity:
	// Member.Self() deep-copies the whole MemberInfo, far too expensive per
	// request.
	selfName    string
	selfMachine string

	// parts is the optional partition-ring attachment (see partition.go);
	// ringMoves counts sessions re-shipped because an epoch change moved
	// their ring placement.
	parts     atomic.Pointer[partition.Views]
	ringMoves atomic.Uint64

	// attrKeys interns the attribute names of replica deltas: applications
	// use a small fixed vocabulary of keys, and a map assignment through
	// string(bytes) allocates the key even when it is already resident.
	attrKeys *wire.Interner

	mu       sync.Mutex
	sessions map[string]*sessState
	seq      uint64
	// repl holds one replication batcher per secondary server (guarded by
	// mu; the batchers themselves have their own locking).
	repl map[string]*replBatcher
}

func newSessionManager(mode SessionMode, service string, member *cluster.Member, node rmi.Node, db *store.Store) *SessionManager {
	return &SessionManager{
		mode:        mode,
		service:     service,
		member:      member,
		node:        node,
		db:          db,
		selfName:    member.Name(),
		selfMachine: member.Self().Machine,
		attrKeys:    wire.NewInterner(1024),
		sessions:    make(map[string]*sessState),
		repl:        make(map[string]*replBatcher),
	}
}

func (sm *SessionManager) self() string { return sm.selfName }

func (sm *SessionManager) newID() string {
	sm.mu.Lock()
	sm.seq++
	n := sm.seq
	sm.mu.Unlock()
	return sm.self() + "-sess-" + strconv.FormatUint(n, 10)
}

// ResidentSessions reports how many sessions (primary or replica) live in
// this engine's memory.
func (sm *SessionManager) ResidentSessions() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.sessions)
}

// resolve produces the Session for a request's cookie, performing
// creation, promotion (Fig 2), or state fetch (Fig 3) as needed. The
// returned Session is pooled: the engine releases it after finish.
//
//wls:hotpath
func (sm *SessionManager) resolve(ctx context.Context, c Cookie) (*Session, error) {
	switch sm.mode {
	case SessionsClientCookie:
		data := c.State
		isNew := false
		if data == nil {
			data = make(map[string]string)
			isNew = true
		}
		id := c.ID
		if id == "" {
			id = sm.newID()
		}
		return acquireSession(id, data, isNew), nil

	case SessionsPersistent:
		id := c.ID
		isNew := id == ""
		data := make(map[string]string)
		if isNew {
			id = sm.newID()
		} else if row, ok := sm.db.Get("wls.sessions", id); ok {
			for k, v := range row.Fields {
				data[k] = v
			}
		}
		return acquireSession(id, data, isNew), nil

	default: // SessionsReplicated
		return sm.resolveReplicated(ctx, c)
	}
}

//wls:hotpath
func (sm *SessionManager) resolveReplicated(ctx context.Context, c Cookie) (*Session, error) {
	if c.ID == "" {
		// New session: this server is the primary; pick a secondary by the
		// ring algorithm among servers running this engine.
		st := &sessState{id: sm.newID(), data: make(map[string]string), primary: true}
		sm.chooseSecondary(st)
		sm.mu.Lock()
		sm.sessions[st.id] = st
		sm.mu.Unlock()
		return acquireSession(st.id, st.data, true), nil
	}

	sm.mu.Lock()
	st, ok := sm.sessions[c.ID]
	sm.mu.Unlock()
	if ok {
		if st.primary {
			sm.maybeRebalance(ctx, st)
		}
		if !st.primary {
			// Fig 2 failover: the plug-in routed to us, the secondary. We
			// become the primary and create a new secondary.
			if sp := trace.FromContext(ctx); sp != nil {
				sp.Annotate("session-promoted", st.id)
			}
			st.primary = true
			sm.chooseSecondary(st)
			sm.shipFull(ctx, st)
		}
		return acquireSession(st.id, st.data, false), nil
	}

	// Fig 3 failover: external routing sent the request to an arbitrary
	// server. "The servlet engine inspects the cookie, contacts the
	// secondary to obtain a copy of the state, becomes the primary, and
	// then rewrites the cookie leaving the secondary unchanged."
	if c.Secondary != "" && c.Secondary != sm.self() {
		if data, err := sm.fetchFrom(ctx, c.Secondary, c.ID); err == nil {
			st := &sessState{id: c.ID, data: data, primary: true, secondary: c.Secondary}
			sm.shipFull(ctx, st)
			sm.mu.Lock()
			sm.sessions[c.ID] = st
			sm.mu.Unlock()
			// The cookie named the secondary; the ring may place it
			// elsewhere now.
			sm.maybeRebalance(ctx, st)
			return acquireSession(st.id, st.data, false), nil
		}
	}
	// Both replicas gone: the session state is lost; start fresh under the
	// same id (the paper's in-memory sessions are "not expected to survive
	// failures" beyond one).
	st = &sessState{id: c.ID, data: make(map[string]string), primary: true}
	sm.chooseSecondary(st)
	sm.mu.Lock()
	sm.sessions[c.ID] = st
	sm.mu.Unlock()
	return acquireSession(st.id, st.data, true), nil
}

// chooseSecondary picks the session's secondary: the consistent-hash ring
// when one is attached (SetPartitions), falling back to the §3.2
// next-in-name-order algorithm among live engines otherwise.
func (sm *SessionManager) chooseSecondary(st *sessState) {
	if vs := sm.parts.Load(); vs != nil {
		if v := vs.Current(); v != nil {
			st.epoch.Store(v.Epoch)
			if sec, ok := sm.ringSecondary(v, st.id); ok {
				st.secondary = sec
				return
			}
		}
	}
	sec, ok := cluster.ChooseSecondaryFrom(sm.member.Self(), sm.member.OffersOf(sm.service))
	if !ok {
		st.secondary = ""
		return
	}
	st.secondary = sec.Name
}

// finish persists/replicates the session after the servlet ran, and
// returns the encoded cookie the response must carry. Replicated sessions
// cache the encoded string on the session state — it only changes when the
// replication topology does — and their deltas ride the per-secondary
// batcher instead of making one RPC per mutation.
//
//wls:hotpath
func (sm *SessionManager) finish(ctx context.Context, s *Session) (string, error) {
	switch sm.mode {
	case SessionsClientCookie:
		return Cookie{ID: s.ID, State: s.data}.Encode(), nil
	case SessionsPersistent:
		sm.db.Put("wls.sessions", s.ID, s.data)
		return Cookie{ID: s.ID}.Encode(), nil
	default:
		sm.mu.Lock()
		st := sm.sessions[s.ID]
		sm.mu.Unlock()
		if st == nil {
			return Cookie{ID: s.ID, Primary: sm.selfName}.Encode(), nil
		}
		if len(s.dirty) > 0 && st.secondary != "" {
			sm.shipDelta(ctx, st, s)
		}
		if st.cookie == "" || st.cookieSec != st.secondary {
			c := Cookie{ID: st.id, Primary: sm.selfName, Secondary: st.secondary}
			st.cookie = c.Encode()
			st.cookieSec = st.secondary
			// Prime the decode cache: the client returns this exact string
			// with its next request.
			cacheCookie(st.cookie, c)
		}
		return st.cookie, nil
	}
}

// ---------------------------------------------------------------------------
// Replication batching

// replBatcher groups delta writes to one secondary the way the transport's
// loopyWriter batches frames on a connection: the first request shipping to
// a given secondary becomes the flush leader; requests arriving while the
// leader's RPC is in flight append their deltas to the pending batch, and
// the next leader flushes them all in one "session.update.batch" call.
// Under serial load every request is its own leader carrying exactly one
// delta, which degenerates to the old one-RPC-per-mutation behaviour.
type replBatcher struct {
	sm  *SessionManager
	sec string // secondary server name

	mu      sync.Mutex // guards pending
	pending *replBatch

	// flushMu serializes flushes; only the current leader holds it, and
	// only the leader touches the stub fields below.
	flushMu  sync.Mutex
	stub     *rmi.Stub
	stubAddr string
}

// replBatch accumulates encoded delta entries bound for one secondary.
type replBatch struct {
	enc   *wire.Encoder // pooled; released by the leader after the flush
	count int
	done  chan struct{} // created lazily by the first follower
	err   error         // written by the leader before close(done)
}

func (sm *SessionManager) batcherFor(sec string) *replBatcher {
	sm.mu.Lock()
	rb, ok := sm.repl[sec]
	if !ok {
		rb = &replBatcher{sm: sm, sec: sec}
		sm.repl[sec] = rb
	}
	sm.mu.Unlock()
	return rb
}

// shipDelta synchronously replicates s's dirty keys to st's secondary via
// the batcher (the response must not be returned before the secondary has
// the delta, §3.2). On error it re-chooses a secondary and re-seeds it —
// the same recovery as the unbatched ship path.
//
//wls:hotpath
func (sm *SessionManager) shipDelta(ctx context.Context, st *sessState, s *Session) {
	rb := sm.batcherFor(st.secondary)
	rb.mu.Lock()
	b := rb.pending
	leader := b == nil
	if leader {
		b = &replBatch{enc: wire.AcquireEncoder()}
		rb.pending = b
	}
	st.gen++
	e := b.enc
	e.String(st.id)
	e.Uint64(st.gen)
	e.Int(len(s.dirty))
	for k := range s.dirty {
		e.String(k)
		e.String(s.data[k])
	}
	b.count++
	var done chan struct{}
	if !leader {
		if b.done == nil {
			b.done = make(chan struct{})
		}
		done = b.done
	}
	nkeys := len(s.dirty)
	rb.mu.Unlock()

	var err error
	if leader {
		rb.flushMu.Lock()
		// Detach the batch: once pending is nil no new participant can
		// join it, so count and done are frozen below.
		rb.mu.Lock()
		rb.pending = nil
		count, followers := b.count, b.done
		rb.mu.Unlock()
		// Holding flushMu across the RPC is the point: it serializes
		// leader flushes so batches reach the secondary in generation
		// order. It is a leaf lock — rb.mu is never held while blocking
		// here, and followers wait on the done channel, not the lock.
		//wls:nolint lockheld -- flushMu is a flush-serialization lock, held across the RPC by design
		err = rb.flush(ctx, b.enc.Bytes(), count, nkeys)
		b.err = err
		if followers != nil {
			close(followers)
		}
		rb.flushMu.Unlock()
		b.enc.Release()
	} else {
		<-done
		err = b.err
	}
	if err != nil {
		sm.chooseSecondary(st)
		sm.shipFull(ctx, st)
	}
}

// flush sends one batch to the secondary under the leader's context. The
// trace span mirrors the unbatched ship: the name and the "to"/"keys"
// annotations (keys = the leader's own key count) are identical, so serial
// timelines are unchanged; a "batched" annotation is added only when
// followers piggybacked.
func (rb *replBatcher) flush(ctx context.Context, payload []byte, count, leaderKeys int) error {
	sm := rb.sm
	info, ok := sm.member.Lookup(rb.sec)
	if !ok {
		return fmt.Errorf("servlet: secondary %s not in view", rb.sec)
	}
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		ctx, span = parent.NewChild(ctx, "session.replicate", trace.KindSession)
		span.Annotate("to", rb.sec)
		span.AnnotateInt("keys", leaderKeys)
		if count > 1 {
			span.AnnotateInt("batched", count)
		}
	}
	if rb.stub == nil || rb.stubAddr != info.Addr {
		rb.stub = rmi.NewStub(sm.service, sm.node, rmi.NamedStaticView(rb.sec, info.Addr))
		rb.stubAddr = info.Addr
	}
	_, err := rb.stub.Invoke(ctx, "session.update.batch", payload)
	if err != nil {
		span.SetError(err)
		span.Finish()
		return err
	}
	span.Finish()
	return nil
}

// ship synchronously transmits a delta to the secondary. A trace span in
// ctx makes the write a "session.replicate" child span that continues the
// trace on the secondary.
func (sm *SessionManager) ship(ctx context.Context, st *sessState, delta map[string]string) {
	info, ok := sm.member.Lookup(st.secondary)
	if !ok {
		sm.chooseSecondary(st)
		if st.secondary == "" {
			return
		}
		sm.shipFull(ctx, st)
		return
	}
	st.gen++
	e := wire.NewEncoder(128)
	e.String(st.id)
	e.Uint64(st.gen)
	e.Int(len(delta))
	for k, v := range delta {
		e.String(k)
		e.String(v)
	}
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		ctx, span = parent.NewChild(ctx, "session.replicate", trace.KindSession)
		span.Annotate("to", st.secondary)
		span.AnnotateInt("keys", len(delta))
	}
	stub := rmi.NewStub(sm.service, sm.node, rmi.StaticView(info.Addr))
	if _, err := stub.Invoke(ctx, "session.update", e.Bytes()); err != nil {
		span.SetError(err)
		span.Finish()
		sm.chooseSecondary(st)
		sm.shipFull(ctx, st)
		return
	}
	span.Finish()
}

// shipFull seeds (or re-seeds) the secondary with the whole state.
func (sm *SessionManager) shipFull(ctx context.Context, st *sessState) {
	if st.secondary == "" {
		return
	}
	full := make(map[string]string, len(st.data))
	for k, v := range st.data {
		full[k] = v
	}
	sm.ship(ctx, st, full)
}

// fetchFrom copies session state from another engine (Fig 3).
func (sm *SessionManager) fetchFrom(ctx context.Context, server, id string) (map[string]string, error) {
	info, ok := sm.member.Lookup(server)
	if !ok {
		return nil, fmt.Errorf("servlet: %s not in view", server)
	}
	e := wire.NewEncoder(32)
	e.String(id)
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		ctx, span = parent.NewChild(ctx, "session.fetch", trace.KindSession)
		span.Annotate("from", server)
		defer span.Finish()
	}
	stub := rmi.NewStub(sm.service, sm.node, rmi.StaticView(info.Addr))
	res, err := stub.Invoke(ctx, "session.fetch", e.Bytes())
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	d := wire.NewDecoder(res.Body)
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	data := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.String()
		data[k] = v
	}
	return data, d.Err()
}

// handleUpdate applies a replica delta (RMI handler).
func (sm *SessionManager) handleUpdate(args []byte) error {
	d := wire.NewDecoder(args)
	return sm.applyUpdate(d)
}

// handleUpdateBatch applies a batch of delta entries, in order. The
// payload is a plain concatenation of single-update entries, consumed
// until the buffer is exhausted.
//
//wls:hotpath
func (sm *SessionManager) handleUpdateBatch(args []byte) error {
	d := wire.NewDecoder(args)
	for d.Remaining() > 0 {
		if err := sm.applyUpdate(d); err != nil {
			return err
		}
	}
	return nil
}

// applyUpdate consumes one delta entry from d and applies it. The entry is
// always fully consumed — even when the generation check skips the apply —
// so batched entries stay framed. Keys resolve through the attribute-name
// interner and a value is converted to an owned string only when it changes
// the stored state, so an update of existing keys costs one allocation per
// changed value and a same-value update none.
func (sm *SessionManager) applyUpdate(d *wire.Decoder) error {
	idB := d.BytesNoCopy()
	gen := d.Uint64()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	st, ok := sm.sessions[string(idB)] // no-alloc lookup
	if !ok {
		st = &sessState{id: string(idB), data: make(map[string]string)}
		sm.sessions[st.id] = st
	}
	apply := gen > st.gen || st.gen == 0
	if apply {
		st.gen = gen
	}
	for i := 0; i < n; i++ {
		kb := d.BytesNoCopy()
		vb := d.BytesNoCopy()
		if !apply {
			continue
		}
		if cur, exists := st.data[string(kb)]; !exists || cur != string(vb) {
			st.data[sm.attrKeys.Intern(kb)] = string(vb)
		}
	}
	return d.Err()
}

// handleFetch returns a replica's state (RMI handler).
func (sm *SessionManager) handleFetch(args []byte) ([]byte, error) {
	d := wire.NewDecoder(args)
	id := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	sm.mu.Lock()
	st, ok := sm.sessions[id]
	var snapshot map[string]string
	if ok {
		snapshot = make(map[string]string, len(st.data))
		for k, v := range st.data {
			snapshot[k] = v
		}
	}
	sm.mu.Unlock()
	if !ok {
		return nil, &rmi.AppError{Msg: "no such session: " + id}
	}
	e := wire.NewEncoder(128)
	e.Int(len(snapshot))
	for k, v := range snapshot {
		e.String(k)
		e.String(v)
	}
	return e.Bytes(), nil
}

// ---------------------------------------------------------------------------
// URL rewriting (§3.2: "Equivalent functionality can also be provided
// using URL rewriting.") For cookie-less clients the session token is
// carried as a path suffix: /cart;wlsession=<token>.

// urlSessionMarker separates the path from the rewritten session token.
const urlSessionMarker = ";wlsession="

// EncodeURL appends the session token to a path, the servlet-spec
// encodeURL analogue.
func EncodeURL(path, cookie string) string {
	if cookie == "" {
		return path
	}
	return path + urlSessionMarker + cookie
}

// SplitURL separates a possibly rewritten path into the bare path and the
// session token ("" when the URL carries none).
func SplitURL(raw string) (path, cookie string) {
	if i := strings.Index(raw, urlSessionMarker); i >= 0 {
		return raw[:i], raw[i+len(urlSessionMarker):]
	}
	return raw, ""
}
