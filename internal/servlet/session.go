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
// client-state sessions it carries the state itself. ID is a record id, 16
// bytes (cluster.IDLen), or empty: a cookie naming anything else is
// malformed.
type Cookie struct {
	ID        string
	Primary   string
	Secondary string
	State     map[string]string // SessionsClientCookie only
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

// DecodeCookie parses a cookie string ("" yields a zero cookie): the general
// decoder. The request path reads cookies through ParseCookie.
func DecodeCookie(s string) (Cookie, error) {
	if s == "" {
		return Cookie{}, nil
	}
	return decodeCookieSlow(s)
}

var errCookieID = errors.New("servlet: cookie id is not a record id")

// validID reports whether a cookie's id is a record id or empty.
func validID[K string | []byte](id K) bool { return len(id) == 0 || len(id) == cluster.IDLen }

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
	if !validID(c.ID) {
		return Cookie{}, errCookieID
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

// CookieBuf is where ParseCookie decodes a cookie it can parse in place: a
// 128-character cookie, two and a half times a replicated session's.
type CookieBuf [96]byte

// CookieRef is a request's cookie as the request path reads it: the fields
// are bytes, to compare against names the receiver already holds, never to
// keep. A state-less cookie that fits the CookieBuf is parsed there without
// allocating, and the fields alias it; others go to the general decoder.
type CookieRef struct {
	ID, Primary, Secondary []byte
	State                  map[string]string // SessionsClientCookie only
}

// ParseCookie parses the cookie of a request, from its header string or
// from the bytes still in a wire buffer ("" yields a zero CookieRef).
func ParseCookie[K string | []byte](s K, buf *CookieBuf) (CookieRef, error) {
	if len(s) == 0 {
		return CookieRef{}, nil
	}
	var in [len(buf) / 3 * 4]byte
	if len(s) <= len(in) {
		if n, err := base64.RawURLEncoding.Decode(buf[:], in[:copy(in[:], s)]); err == nil {
			d := wire.NewDecoder(buf[:n])
			c := CookieRef{ID: d.BytesNoCopy(), Primary: d.BytesNoCopy(), Secondary: d.BytesNoCopy()}
			if count, err := attrCount(d); err == nil && count == 0 && validID(c.ID) {
				return c, nil
			}
		}
	}
	// Carries state, too long, or malformed: the general decoder decides.
	c, err := decodeCookieSlow(string(s))
	b, i, j := []byte(c.ID+c.Primary+c.Secondary), len(c.ID), len(c.ID)+len(c.Primary)
	return CookieRef{b[:i], b[i:j], b[j:], c.State}, err
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

// sessState is one session's record plus where its copies live, 64 bytes:
// place is a placement, changed only by compare-and-swap (in shipTo, unless
// it is the epoch alone).
type sessState struct {
	id    string
	rec   record
	place atomic.Uint64
}

// placement is where a session's copies live, in one word: the low half of
// the ring epoch it was last checked against (0 = never ring-placed), the
// secondary as an index into SessionManager.repl (0 = none), and whether
// this server is the primary.
type placement uint64

const placedPrimary placement = 1 << 63

func (p placement) epoch() uint32 { return uint32(p) }
func (p placement) sec() uint32   { return uint32(p>>32) &^ (1 << 31) }
func (p placement) primary() bool { return p&placedPrimary != 0 }

// primaryAt is the placement of a primary whose secondary is sec.
func primaryAt(epoch, sec uint32) placement {
	return placedPrimary | placement(sec)<<32 | placement(epoch)
}

func (st *sessState) placed() placement { return placement(st.place.Load()) }

// SessionManager holds one engine's sessions and implements the §3.2
// replication and failover flows.
type SessionManager struct {
	mode    SessionMode
	service string // the engine's RMI service name, for replica traffic
	member  *cluster.Member
	node    rmi.Node
	db      *store.Store // SessionsPersistent only

	// selfName, selfMachine and selfGroups cache the (immutable) local
	// identity: Member.Self() deep-copies the whole MemberInfo, far too
	// expensive per request.
	selfName    string
	selfMachine string
	selfGroups  []string // preferred secondary groups

	// parts is the optional partition-ring attachment (see partition.go);
	// ringMoves counts sessions re-shipped because an epoch change moved
	// their ring placement.
	parts     atomic.Pointer[partition.Views]
	ringMoves atomic.Uint64

	// attrKeys interns the attribute names that arrive in replica deltas
	// and fetch replies, so every record shares one copy of each key.
	attrKeys *wire.Interner

	// repl is the server-name table a placement's secondary indexes, with
	// each name's replication batcher: append-only and copied on write, read
	// without a lock. Entry 0 is "", no secondary; names are the view's.
	repl atomic.Pointer[[]*replBatcher]

	mu       sync.Mutex
	sessions map[string]*sessState
}

func newSessionManager(mode SessionMode, service string, member *cluster.Member, node rmi.Node, db *store.Store) *SessionManager {
	self := member.Self()
	sm := &SessionManager{
		mode:        mode,
		service:     service,
		member:      member,
		node:        node,
		db:          db,
		selfName:    self.Name,
		selfMachine: self.Machine,
		selfGroups:  self.PreferredSecondaryGroups,
		attrKeys:    wire.NewInterner(1024),
		sessions:    make(map[string]*sessState),
	}
	sm.repl.Store(&[]*replBatcher{{}})
	return sm
}

// newID names a new record: 16 bytes from the member's id source, which
// no client can count its way to and a restarted server does not repeat.
func (sm *SessionManager) newID() string {
	id := sm.member.NewID()
	return string(id[:])
}

// secName is the server index i of repl names; secIndex enters name on first use.
func (sm *SessionManager) secName(i uint32) string { return (*sm.repl.Load())[i].sec }

func (sm *SessionManager) secIndex(name string) uint32 {
	for {
		tab := sm.repl.Load()
		for i, rb := range *tab {
			if rb.sec == name {
				return uint32(i)
			}
		}
		grown := append(slices.Clone(*tab), &replBatcher{sm: sm, sec: name})
		sm.repl.CompareAndSwap(tab, &grown)
	}
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
func (sm *SessionManager) resolve(ctx context.Context, c *CookieRef) *Session {
	if sm.mode == SessionsReplicated {
		return sm.resolveReplicated(ctx, c)
	}
	// The stateless modes: the request owns its state, filled from the
	// cookie or from shared storage and never entered in the table.
	st, isNew := &sessState{id: string(c.ID)}, len(c.ID) == 0
	switch {
	case sm.mode == SessionsClientCookie:
		isNew = c.State == nil
		st.rec.load(c.State)
	case !isNew:
		// A persistent id with no row names no session: it gets a fresh
		// one, as adopt's do.
		row, ok := sm.db.Get("wls.sessions", st.id)
		st.rec.load(row.Fields)
		if !ok {
			st.id, isNew = "", true
		}
	}
	if st.id == "" {
		st.id = sm.newID()
	}
	return acquireSession(st, isNew)
}

func (sm *SessionManager) resolveReplicated(ctx context.Context, c *CookieRef) *Session {
	var st *sessState
	if len(c.ID) > 0 {
		sm.mu.Lock()
		st = sm.sessions[string(c.ID)] // no-alloc lookup
		sm.mu.Unlock()
	}
	isNew := st == nil
	if isNew {
		st, isNew = sm.adopt(ctx, c)
	}
	if p := st.placed(); p.primary() {
		sm.maybeRebalance(ctx, st, p)
	} else if sm.ship(ctx, st, nil, p, sm.chooseSecondary(st.id, p, "")) {
		// Fig 2 failover: the plug-in routed to us, the secondary. We became
		// the primary and created a new secondary.
		if sp := trace.FromContext(ctx); sp != nil {
			sp.Annotate("session-promoted", cluster.IDString(st.id))
		}
	}
	return acquireSession(st, isNew)
}

// adopt makes this server the primary of a session it does not hold: a
// new one, or (Fig 3) one external routing sent to an arbitrary server. "The
// servlet engine inspects the cookie, contacts the secondary to obtain a
// copy of the state, becomes the primary, and then rewrites the cookie
// leaving the secondary unchanged" — and ready for this primary's next
// delta, as the copy brings its generation. A cookie naming a session no
// copy of which can be found — both replicas gone (in-memory sessions are
// "not expected to survive failures" beyond one), a fetch that failed, an
// id no server ever issued — starts a fresh session under a new id: a
// client cannot choose the id of a live session, and a replica left on a
// secondary the fetch could not reach is never seeded over at generation 1,
// below the generation it holds.
func (sm *SessionManager) adopt(ctx context.Context, c *CookieRef) (*sessState, bool) {
	st := &sessState{}
	for _, sec := range sm.member.OffersOf(sm.service) {
		if len(c.ID) == 0 || sec.Name != string(c.Secondary) || sec.Name == sm.selfName {
			continue
		}
		if attrs, gen, err := sm.fetchFrom(ctx, sec, c.ID); err == nil {
			st.id, st.rec.attrs, st.rec.gen = string(c.ID), attrs, gen
			// Epoch 0: the cookie named the secondary; the ring may place it elsewhere.
			st.place.Store(uint64(primaryAt(0, sm.secIndex(sec.Name))))
		}
		break
	}
	isNew := st.id == ""
	if isNew {
		st.id = sm.newID()
		st.place.Store(uint64(sm.chooseSecondary(st.id, 0, "")))
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if cur, ok := sm.sessions[st.id]; ok {
		return cur, false // a parallel request of the fetched session got here first
	}
	sm.sessions[st.id] = st
	return st, isNew
}

// chooseSecondary returns p as a primary's placement with a newly picked
// secondary among the live engines (cluster.Picker), fed in one of two
// orders: the session's clockwise walk of the consistent-hash ring when one
// is attached (SetPartitions), at the ring's epoch; the engines after this
// one in name order otherwise. It never picks avoid, the secondary a ship
// just failed against ("" on first placement): a dead server stays in the
// view until the failure detector drops it.
func (sm *SessionManager) chooseSecondary(id string, p placement, avoid string) placement {
	epoch := p.epoch()
	self := cluster.MemberInfo{Name: sm.selfName, Machine: sm.selfMachine, PreferredSecondaryGroups: sm.selfGroups}
	pick := cluster.NewPicker(self, sm.member.OffersOf(sm.service), avoid)
	if v := sm.ringView(); v != nil {
		epoch = uint32(v.Epoch)
		v.Ring.Walk(id, pick.Offer)
	} else {
		pick.OfferNameOrder()
	}
	return primaryAt(epoch, sm.secIndex(pick.Pick()))
}

// finish persists/replicates the session after the servlet ran, and
// returns the cookie the response must carry — or same: c, which the
// request carried, still says all the response's cookie would, so none is
// encoded. A replicated session's does when it names this session, this
// server and its secondary; a stateless session's when it names this
// session and no servers, and (client-cookie mode) the request wrote no
// state. Deltas ride the per-secondary batcher.
func (sm *SessionManager) finish(ctx context.Context, s *Session, c *CookieRef) (cookie string, same bool) {
	namesOnlyIt := string(c.ID) == s.ID && len(c.Primary) == 0 && len(c.Secondary) == 0
	switch sm.mode {
	case SessionsClientCookie:
		if namesOnlyIt && len(s.dirty) == 0 {
			return "", true
		}
		return encodeCookie(s.ID, "", "", s.st.rec.attrs), false
	case SessionsPersistent:
		fields := make(map[string]string, len(s.st.rec.attrs))
		for _, a := range s.st.rec.attrs {
			fields[a.key] = a.value
		}
		sm.db.Put("wls.sessions", s.ID, fields)
		if namesOnlyIt && c.State == nil {
			return "", true
		}
		return Cookie{ID: s.ID}.Encode(), false
	default:
		st := s.st
		if len(s.dirty) > 0 {
			sm.ship(ctx, st, s.dirty, 0, 0)
		}
		sec := sm.secName(st.placed().sec())
		if string(c.ID) == st.id && string(c.Primary) == sm.selfName && string(c.Secondary) == sec {
			return "", true
		}
		return encodeCookie(st.id, sm.selfName, sec, nil), false
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

var errMoved = errors.New("servlet: placement moved") // shipTo: from is no longer the placement

// ship synchronously replicates st's record to its secondary before the
// response is returned (§3.2): the attributes at the dirty indexes, or the
// whole record when dirty is nil. With to != 0 it changes the placement from
// → to and seeds to's secondary — or reports false: a parallel request
// changed it first, and did the shipping. If the secondary cannot be reached
// it places and seeds another, once; if that fails too, the next write retries.
func (sm *SessionManager) ship(ctx context.Context, st *sessState, dirty []int, from, to placement) bool {
	failed, err := sm.shipTo(ctx, st, dirty, from, to)
	if err == errMoved {
		return false
	}
	for err != nil {
		from = st.placed()
		if from.sec() != failed {
			break // a parallel request has re-placed it, and seeded after our write
		}
		to = sm.chooseSecondary(st.id, from, sm.secName(failed))
		if _, err = sm.shipTo(ctx, st, nil, from, to); err != errMoved {
			break // seeded, or the next write retries; the flush span carries the error
		}
	}
	return true
}

// shipTo sends one delta entry through the batcher of st's secondary and
// returns that secondary's index. With to != 0 it first replaces the
// placement from with to, or fails with errMoved — under the record's lock,
// in the step that takes the seed's generation and place on the wire, so a
// change ships exactly once: a parallel request's delta came before (to the
// old secondary; the seed holds its write) or follows the seed to the new.
func (sm *SessionManager) shipTo(ctx context.Context, st *sessState, dirty []int, from, to placement) (sec uint32, err error) {
	r := &st.rec
	r.mu.Lock()
	if to == 0 {
		to = st.placed()
	} else if !st.place.CompareAndSwap(uint64(from), uint64(to)) {
		err = errMoved
	}
	if sec = to.sec(); sec == 0 || err != nil {
		r.mu.Unlock()
		return 0, err
	}
	rb := (*sm.repl.Load())[sec]
	rb.mu.Lock()
	b := rb.pending
	leader := b == nil
	if leader {
		b = &replBatch{enc: wire.AcquireEncoder()}
		rb.pending = b
	}
	r.gen++
	b.enc.Raw(st.id)
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
		return sec, b.err
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
	err = rb.flush(ctx, b.enc.Bytes(), count, nkeys)
	b.err = err
	if followers != nil {
		close(followers)
	}
	rb.flushMu.Unlock()
	b.enc.Release()
	return sec, err
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

// fetchFrom copies a session's state and generation from server's engine (Fig 3).
func (sm *SessionManager) fetchFrom(ctx context.Context, server cluster.MemberInfo, id []byte) ([]attr, uint64, error) {
	e := wire.NewEncoder(32)
	e.Bytes2(id)
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		ctx, span = parent.NewChild(ctx, "session.fetch", trace.KindSession)
		span.Annotate("from", server.Name)
		defer span.Finish()
	}
	stub := rmi.NewStub(sm.service, sm.node, rmi.StaticView(server.Addr))
	res, err := stub.Invoke(ctx, "session.fetch", e.Bytes())
	if err != nil {
		span.SetError(err)
		return nil, 0, err
	}
	d := wire.NewDecoder(res.Body)
	gen := d.Uint64()
	attrs, err := decodeAttrs(d, sm.attrKeys)
	return attrs, gen, err
}

// handleUpdateBatch applies a batch of delta entries, in order: a plain
// concatenation, consumed until the buffer is exhausted.
func (sm *SessionManager) handleUpdateBatch(args []byte) error {
	d := wire.NewDecoder(args)
	for d.Remaining() > 0 {
		if err := sm.applyUpdate(d); err != nil {
			return err
		}
	}
	return nil
}

// applyUpdate consumes one delta entry from d — the record's 16-byte id,
// its generation and an attribute list — all of it, even when the
// generation check skips the apply, so batched entries stay framed. Keys
// are compared as bytes and interned when new, and a value becomes an owned
// string only when it changes the stored state: an update of existing keys
// costs one allocation per changed value, a same-value update none.
func (sm *SessionManager) applyUpdate(d *wire.Decoder) error {
	idB := d.Raw(cluster.IDLen)
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

// handleFetch returns a replica's generation and state (RMI handler).
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
		return nil, &rmi.AppError{Msg: "no such session: " + cluster.IDString(id)}
	}
	e := wire.NewEncoder(128)
	st.rec.mu.Lock()
	e.Uint64(st.rec.gen)
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
