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
	"errors"
	"fmt"
	"slices"
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

// Encode serializes the cookie to its wire string. State is written in key
// order, so equal cookies encode equally.
func (c Cookie) Encode() string {
	var state record
	state.load(c.State)
	return encodeCookie(c.ID, c.Primary, c.Secondary, state.attrs)
}

// encodeCookie is Encode over a record's attributes, which the caller owns:
// they are put in key order first, so equal state yields an equal cookie.
func encodeCookie(id, primary, secondary string, state []attr) string {
	e := wire.MakeEncoder(64)
	e.String(id)
	e.String(primary)
	e.String(secondary)
	slices.SortFunc(state, byKey)
	appendAttrs(&e, state, nil)
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

// cachedCookie looks a cookie up by its string or, without materializing
// one, by its bytes still in a wire buffer.
func cachedCookie[K string | []byte](k K) (Cookie, bool) {
	cookieCache.RLock()
	c, ok := cookieCache.m[string(k)] // compiler-recognized no-alloc lookup
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
	if c, ok := cachedCookie(s); ok || s == "" {
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
	if c, ok := cachedCookie(b); ok || len(b) == 0 {
		return c, nil
	}
	return DecodeCookie(string(b))
}

func decodeCookieSlow(s string) (Cookie, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Cookie{}, err
	}
	d := wire.NewDecoder(raw)
	c := Cookie{ID: d.String(), Primary: d.String(), Secondary: d.String()}
	n, err := attrCount(d)
	if err != nil {
		return Cookie{}, err
	}
	if n > 0 {
		c.State = make(map[string]string, n)
		for ; n > 0; n-- {
			k := d.String()
			c.State[k] = d.String()
		}
	}
	return c, d.Err()
}

// attr is one session attribute: a 32 B slot plus the bytes of its value
// (keys decoded off the wire are interned; applications use few).
type attr struct{ key, value string }

// record is a session's attributes and replication generation: the one
// representation wherever a session lives (primary, replica, the stateless
// modes' request-owned state) and what every encoder writes from. A flat
// list searched linearly: sessions hold a handful of short attributes,
// where a map spends ~340 B on header and group before the first byte of
// data. Attributes are only added or overwritten, so an index into attrs
// stays valid for the record's life (Session.dirty relies on it).
//
// Lock rule: mu guards attrs and gen, nothing else. It is never held across
// an RPC nor together with SessionManager.mu (look up under sm.mu, release,
// then lock the record). The one lock taken under it is a replBatcher's mu:
// a delta takes its generation and its place in the secondary's pending
// batch in one step, so per-session wire order equals generation order.
type record struct {
	//wls:lockorder servlet.record.mu<servlet.replBatcher.mu
	mu    sync.Mutex
	attrs []attr
	// gen numbers the deltas shipped from (primary) or applied to
	// (secondary) this record.
	gen uint64
}

func byKey(a, b attr) int { return strings.Compare(a.key, b.key) }

// find returns the index of key in r.attrs, or -1. Caller holds r.mu.
func (r *record) find(key string) int {
	for i := range r.attrs {
		if r.attrs[i].key == key {
			return i
		}
	}
	return -1
}

// add appends one attribute and returns its index. A full list grows by
// room (a replica's first delta passes its attribute count), at least two
// slots (a session's first write) and at least double: the first growth is
// the one allocation a map's was. Caller holds r.mu.
func (r *record) add(key, value string, room int) int {
	n := len(r.attrs)
	if n == cap(r.attrs) {
		grown := make([]attr, n, n+max(room, n, 2))
		copy(grown, r.attrs)
		r.attrs = grown
	}
	r.attrs = r.attrs[:n+1]
	r.attrs[n] = attr{key, value}
	return n
}

// load fills an empty record from Cookie.State or a persistent store row.
func (r *record) load(m map[string]string) {
	for k, v := range m {
		r.add(k, v, len(m))
	}
}

// appendAttrs writes the list format a delta entry's tail, the fetch reply
// and the cookie state share — a count, then the key/value pairs at the
// dirty indexes, or all of attrs when dirty is nil — and returns the count.
func appendAttrs(e *wire.Encoder, attrs []attr, dirty []int) int {
	if dirty == nil {
		e.Int(len(attrs))
		for _, a := range attrs {
			e.String(a.key)
			e.String(a.value)
		}
		return len(attrs)
	}
	e.Int(len(dirty))
	for _, i := range dirty {
		e.String(attrs[i].key)
		e.String(attrs[i].value)
	}
	return len(dirty)
}

var errAttrCount = errors.New("servlet: attribute count exceeds payload")

// attrCount reads a list's count and checks it against what d still holds
// (a pair is two length bytes or more): cookies come from outside.
func attrCount(d *wire.Decoder) (int, error) {
	n := d.Int()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if n < 0 || n > d.Remaining()/2 {
		return 0, errAttrCount
	}
	return n, nil
}

// decodeAttrs reads an attribute list into a fresh slice, keys interned.
func decodeAttrs(d *wire.Decoder, keys *wire.Interner) ([]attr, error) {
	n, err := attrCount(d)
	if n == 0 {
		return nil, err
	}
	attrs := make([]attr, n)
	for i := range attrs {
		attrs[i] = attr{keys.Intern(d.BytesNoCopy()), d.String()}
	}
	return attrs, d.Err()
}

// Session is the request-scoped view of one browser session's state.
//
// Sessions are pooled by the engine: a servlet must not retain the *Session
// past the end of its HandlerFunc (copy attribute values out if they must
// outlive the request).
//
//wls:pooled
type Session struct {
	ID string
	// st holds the record: engine-resident, or (stateless modes) the request's.
	st *sessState
	// dirty lists the indexes in st.rec.attrs this request wrote.
	dirty []int
	isNew bool
}

// sessionPool recycles the view and its dirty list, never a record.
var sessionPool = sync.Pool{New: func() any { return new(Session) }}

func acquireSession(st *sessState, isNew bool) *Session {
	s := sessionPool.Get().(*Session)
	s.ID, s.st, s.isNew = st.id, st, isNew
	return s
}

func releaseSession(s *Session) {
	s.ID, s.st, s.dirty, s.isNew = "", nil, s.dirty[:0], false
	sessionPool.Put(s)
}

// Get reads a session attribute.
func (s *Session) Get(key string) string {
	r := &s.st.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.find(key); i >= 0 {
		return r.attrs[i].value
	}
	return ""
}

// Set writes a session attribute.
func (s *Session) Set(key, value string) {
	r := &s.st.rec
	r.mu.Lock()
	i := r.find(key)
	if i >= 0 {
		r.attrs[i].value = value
	} else {
		i = r.add(key, value, 0)
	}
	r.mu.Unlock()
	if !slices.Contains(s.dirty, i) {
		s.dirty = append(s.dirty, i)
	}
}

// Len returns the number of attributes.
func (s *Session) Len() int {
	s.st.rec.mu.Lock()
	defer s.st.rec.mu.Unlock()
	return len(s.st.rec.attrs)
}

// IsNew reports whether the session was created by this request.
func (s *Session) IsNew() bool { return s.isNew }

// sessState is one session's record plus where its copies live. The
// placement fields (secondary, primary, cookie) are outside the record's
// lock: they change only with the replication topology, on the request
// path of the session they belong to.
type sessState struct {
	id        string
	secondary string
	// cookie caches the encoded response cookie; setSecondary clears it, so
	// encoding (and its base64) happens only when the topology changes.
	cookie string
	rec    record

	// epoch is the low half of the ring epoch this session's placement was
	// last checked against (0 = never ring-placed). Atomic because the
	// admin stats scan reads it while the request path stamps it.
	epoch   atomic.Uint32
	primary bool
}

func (st *sessState) setSecondary(name string) {
	if st.secondary != name {
		st.secondary, st.cookie = name, ""
	}
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

	// attrKeys interns the attribute names that arrive in replica deltas
	// and fetch replies, so every record shares one copy of each key.
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

func (sm *SessionManager) newID() string {
	sm.mu.Lock()
	sm.seq++
	n := sm.seq
	sm.mu.Unlock()
	return sm.selfName + "-sess-" + strconv.FormatUint(n, 10)
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
func (sm *SessionManager) resolve(ctx context.Context, c Cookie) *Session {
	if sm.mode == SessionsReplicated {
		return sm.resolveReplicated(ctx, c)
	}
	// The stateless modes: the request owns its state, filled from the
	// cookie or from shared storage and never entered in the table.
	st, isNew := &sessState{id: c.ID}, c.ID == ""
	if isNew {
		st.id = sm.newID()
	}
	if sm.mode == SessionsClientCookie {
		isNew = c.State == nil
		st.rec.load(c.State)
	} else if !isNew {
		if row, ok := sm.db.Get("wls.sessions", st.id); ok {
			st.rec.load(row.Fields)
		}
	}
	return acquireSession(st, isNew)
}

// fresh starts an empty session under id, this server its primary.
func (sm *SessionManager) fresh(id string) *Session {
	st := &sessState{id: id, primary: true}
	sm.chooseSecondary(st, "")
	sm.mu.Lock()
	sm.sessions[id] = st
	sm.mu.Unlock()
	return acquireSession(st, true)
}

//wls:hotpath
func (sm *SessionManager) resolveReplicated(ctx context.Context, c Cookie) *Session {
	if c.ID == "" {
		return sm.fresh(sm.newID())
	}

	sm.mu.Lock()
	st, ok := sm.sessions[c.ID]
	sm.mu.Unlock()
	if ok {
		if st.primary {
			sm.maybeRebalance(ctx, st)
		} else {
			// Fig 2 failover: the plug-in routed to us, the secondary. We
			// become the primary and create a new secondary.
			if sp := trace.FromContext(ctx); sp != nil {
				sp.Annotate("session-promoted", st.id)
			}
			st.primary = true
			sm.chooseSecondary(st, "")
			sm.ship(ctx, st, nil)
		}
		return acquireSession(st, false)
	}

	// Fig 3 failover: external routing sent the request to an arbitrary
	// server. "The servlet engine inspects the cookie, contacts the
	// secondary to obtain a copy of the state, becomes the primary, and
	// then rewrites the cookie leaving the secondary unchanged."
	if c.Secondary != "" && c.Secondary != sm.selfName {
		if attrs, err := sm.fetchFrom(ctx, c.Secondary, c.ID); err == nil {
			st := &sessState{id: c.ID, primary: true, secondary: c.Secondary}
			st.rec.attrs = attrs
			sm.ship(ctx, st, nil)
			sm.mu.Lock()
			sm.sessions[c.ID] = st
			sm.mu.Unlock()
			// The cookie named the secondary; the ring may place it elsewhere.
			sm.maybeRebalance(ctx, st)
			return acquireSession(st, false)
		}
	}
	// Both replicas gone: the session state is lost; start fresh under the
	// same id (the paper's in-memory sessions are "not expected to survive
	// failures" beyond one).
	return sm.fresh(c.ID)
}

// chooseSecondary picks the session's secondary: the consistent-hash ring
// when one is attached (SetPartitions), falling back to the §3.2
// next-in-name-order algorithm among live engines otherwise. It never picks
// avoid, the secondary a ship just failed against ("" on first placement):
// a dead server stays in the view until the failure detector drops it.
func (sm *SessionManager) chooseSecondary(st *sessState, avoid string) {
	if vs := sm.parts.Load(); vs != nil {
		if v := vs.Current(); v != nil {
			st.epoch.Store(uint32(v.Epoch))
			if sec, ok := sm.ringSecondary(v, st.id, avoid); ok {
				st.setSecondary(sec)
				return
			}
		}
	}
	offers := sm.member.OffersOf(sm.service)
	if avoid != "" { // rare; offers is the member's shared cache, so filter a copy
		offers = slices.DeleteFunc(slices.Clone(offers), func(m cluster.MemberInfo) bool { return m.Name == avoid })
	}
	sec, _ := cluster.ChooseSecondaryFrom(sm.member.Self(), offers)
	st.setSecondary(sec.Name)
}

// finish persists/replicates the session after the servlet ran, and
// returns the encoded cookie the response must carry. Replicated sessions
// cache the encoded string on the session state (it changes only with the
// replication topology) and their deltas ride the per-secondary batcher.
//
//wls:hotpath
func (sm *SessionManager) finish(ctx context.Context, s *Session) string {
	switch sm.mode {
	case SessionsClientCookie:
		return encodeCookie(s.ID, "", "", s.st.rec.attrs)
	case SessionsPersistent:
		fields := make(map[string]string, len(s.st.rec.attrs))
		for _, a := range s.st.rec.attrs {
			fields[a.key] = a.value
		}
		sm.db.Put("wls.sessions", s.ID, fields)
		return Cookie{ID: s.ID}.Encode()
	default:
		st := s.st
		if len(s.dirty) > 0 {
			sm.ship(ctx, st, s.dirty)
		}
		if st.cookie == "" {
			st.cookie = encodeCookie(st.id, sm.selfName, st.secondary, nil)
			// Prime the decode cache: the client returns this exact string
			// with its next request.
			cacheCookie(st.cookie, Cookie{ID: st.id, Primary: sm.selfName, Secondary: st.secondary})
		}
		return st.cookie
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
// delta: a batch of one.
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

// ship synchronously replicates st's record to its secondary before the
// response is returned (§3.2): the attributes at the dirty indexes, or the
// whole record when dirty is nil (seeding a new secondary). If the
// secondary cannot be reached it seeds another with the whole record,
// once; should that fail too, the session's next write tries again.
//
//wls:hotpath
func (sm *SessionManager) ship(ctx context.Context, st *sessState, dirty []int) {
	if st.secondary == "" {
		return
	}
	if err := sm.shipTo(ctx, st, dirty); err != nil {
		sm.chooseSecondary(st, st.secondary)
		if st.secondary != "" {
			_ = sm.shipTo(ctx, st, nil) // the next write retries; the flush span carries the error
		}
	}
}

// shipTo sends one delta entry through st.secondary's batcher.
//
//wls:hotpath
func (sm *SessionManager) shipTo(ctx context.Context, st *sessState, dirty []int) error {
	rb := sm.batcherFor(st.secondary)
	r := &st.rec
	r.mu.Lock()
	rb.mu.Lock()
	b := rb.pending
	leader := b == nil
	if leader {
		b = &replBatch{enc: wire.AcquireEncoder()}
		rb.pending = b
	}
	r.gen++
	b.enc.String(st.id)
	b.enc.Uint64(r.gen)
	nkeys := appendAttrs(b.enc, r.attrs, dirty)
	b.count++
	if !leader && b.done == nil {
		b.done = make(chan struct{})
	}
	done := b.done
	rb.mu.Unlock()
	r.mu.Unlock()

	if !leader {
		<-done
		return b.err
	}
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
	err := rb.flush(ctx, b.enc.Bytes(), count, nkeys)
	b.err = err
	if followers != nil {
		close(followers)
	}
	rb.flushMu.Unlock()
	b.enc.Release()
	return err
}

// flush sends one batch to the secondary under the leader's context, as a
// "session.replicate" span that continues the trace there (keys = the
// leader's own key count; "batched" only when followers piggybacked).
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
	}
	span.Finish()
	return err
}

// fetchFrom copies session state from another engine (Fig 3).
func (sm *SessionManager) fetchFrom(ctx context.Context, server, id string) ([]attr, error) {
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
	return decodeAttrs(wire.NewDecoder(res.Body), sm.attrKeys)
}

// handleUpdateBatch applies a batch of delta entries, in order: a plain
// concatenation, consumed until the buffer is exhausted.
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

// applyUpdate consumes one delta entry from d — all of it, even when the
// generation check skips the apply, so batched entries stay framed. Keys
// are compared as bytes and interned when new, and a value becomes an owned
// string only when it changes the stored state: an update of existing keys
// costs one allocation per changed value, a same-value update none.
func (sm *SessionManager) applyUpdate(d *wire.Decoder) error {
	idB := d.BytesNoCopy()
	gen := d.Uint64()
	n, err := attrCount(d)
	if err != nil {
		return err
	}
	sm.mu.Lock()
	st, ok := sm.sessions[string(idB)] // no-alloc lookup
	if !ok {
		st = &sessState{id: string(idB)}
		sm.sessions[st.id] = st
	}
	sm.mu.Unlock()
	r := &st.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	apply := gen > r.gen || r.gen == 0
	if apply {
		r.gen = gen
	}
	for ; n > 0; n-- {
		kb := d.BytesNoCopy()
		vb := d.BytesNoCopy()
		if !apply || d.Err() != nil {
			continue
		}
		i := 0
		for i < len(r.attrs) && r.attrs[i].key != string(kb) {
			i++
		}
		if i < len(r.attrs) && r.attrs[i].value == string(vb) {
			continue
		}
		if v := string(vb); i < len(r.attrs) {
			r.attrs[i].value = v
		} else {
			r.add(sm.attrKeys.Intern(kb), v, n)
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
	sm.mu.Unlock()
	if !ok {
		return nil, &rmi.AppError{Msg: "no such session: " + id}
	}
	e := wire.NewEncoder(128)
	st.rec.mu.Lock()
	appendAttrs(e, st.rec.attrs, nil)
	st.rec.mu.Unlock()
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
