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
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"wls/internal/attrs"
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
	e := wire.MakeEncoder(64)
	attrs.AppendMap(&e, c.State)
	return encodeCookie(c.ID, c.Primary, c.Secondary, string(e.Bytes()))
}

// encodeCookie is Encode with the state an attribute list: a record's, in
// key order already, or attrs.Empty.
func encodeCookie(id, primary, secondary, state string) string {
	e := wire.MakeEncoder(64)
	e.String(id)
	e.String(primary)
	e.String(secondary)
	e.Raw(state)
	return base64.RawURLEncoding.EncodeToString(e.Bytes())
}

// DecodeCookie parses a cookie string ("" yields a zero cookie) into owned
// fields. The request path reads cookies through ParseCookie.
func DecodeCookie(s string) (Cookie, error) {
	if s == "" {
		return Cookie{}, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Cookie{}, err
	}
	c, err := readCookie(raw)
	if err != nil {
		return Cookie{}, err
	}
	out := Cookie{ID: string(c.ID), Primary: string(c.Primary), Secondary: string(c.Secondary)}
	if c.State != nil {
		out.State = attrs.Map(c.State)
	}
	return out, nil
}

var errCookieID = errors.New("servlet: cookie id is not a record id")

// validID reports whether a cookie's id is a record id or empty.
func validID[K string | []byte](id K) bool { return len(id) == 0 || len(id) == cluster.IDLen }

// readCookie reads a decoded cookie's fields, aliasing raw.
func readCookie(raw []byte) (CookieRef, error) {
	d := wire.NewDecoder(raw)
	c := CookieRef{ID: d.BytesNoCopy(), Primary: d.BytesNoCopy(), Secondary: d.BytesNoCopy()}
	state, err := attrs.Read(d, false)
	if err != nil {
		return CookieRef{}, err
	}
	if !validID(c.ID) {
		return CookieRef{}, errCookieID
	}
	if attrs.Len(state) > 0 {
		c.State = state
	}
	return c, nil
}

// CookieBuf is where ParseCookie decodes a cookie it can parse in place: a
// 128-character cookie, two and a half times a replicated session's.
type CookieBuf [96]byte

// CookieRef is a request's cookie as the request path reads it: the fields
// are bytes, to compare against names the receiver already holds, never to
// keep. A cookie that fits the CookieBuf is parsed there without
// allocating, and the fields alias it; longer ones are decoded apart.
type CookieRef struct {
	ID, Primary, Secondary []byte
	// State is the client-cookie state as the cookie carries it, an
	// attribute list, or nil for none (SessionsClientCookie only).
	State []byte
}

// ParseCookie parses the cookie of a request, from its header string or
// from the bytes still in a wire buffer ("" yields a zero CookieRef).
func ParseCookie[K string | []byte](s K, buf *CookieBuf) (CookieRef, error) {
	if len(s) == 0 {
		return CookieRef{}, nil
	}
	var in [len(buf) / 3 * 4]byte
	if len(s) > len(in) {
		raw, err := base64.RawURLEncoding.DecodeString(string(s))
		if err != nil {
			return CookieRef{}, err
		}
		return readCookie(raw)
	}
	n, err := base64.RawURLEncoding.Decode(buf[:], in[:copy(in[:], s)])
	if err != nil {
		return CookieRef{}, err
	}
	return readCookie(buf[:n])
}

// Session is the request-scoped view of one browser session's state.
//
// Sessions are pooled by the engine: a servlet must not retain the *Session
// past the end of its HandlerFunc (copy attribute values out if they must
// outlive the request).
type Session struct {
	// ID is the record's id, a string over the state's key.
	ID string
	// st holds the record: engine-resident, or (stateless modes) the request's.
	st *sessState
	// pending is what this use of the view wrote, each key once, in
	// first-write order, until it lands in the record (finish, Flush or
	// Close) and, as a delta, ships.
	pending []attrs.Pair
}

// sessionPool recycles the view and its pending list, never a record.
var sessionPool = sync.Pool{New: func() any { return new(Session) }}

func acquireSession(st *sessState) *Session {
	s := sessionPool.Get().(*Session)
	s.ID, s.st = st.id(), st
	return s
}

func releaseSession(s *Session) {
	clear(s.pending)
	s.ID, s.st, s.pending = "", nil, s.pending[:0]
	sessionPool.Put(s)
}

// Get reads a session attribute: this request's write of it, or the
// record's value, a substring of its attribute list.
func (s *Session) Get(key string) string {
	if i := s.written(key); i >= 0 {
		return s.pending[i].V
	}
	v, _ := attrs.Lookup(s.st.data(), key)
	return v
}

// Set writes a session attribute. The write lands in the record when the
// request finishes.
func (s *Session) Set(key, value string) {
	if i := s.written(key); i >= 0 {
		s.pending[i].V = value
		return
	}
	s.pending = append(s.pending, attrs.Pair{K: key, V: value})
}

// written returns the index of key in s.pending, or -1.
func (s *Session) written(key string) int {
	for i := range s.pending {
		if s.pending[i].K == key {
			return i
		}
	}
	return -1
}

// Len returns the number of attributes.
func (s *Session) Len() int {
	list := s.st.data()
	n := attrs.Len(list)
	for _, p := range s.pending {
		if _, ok := attrs.Lookup(list, p.K); !ok {
			n++
		}
	}
	return n
}

// pendingList encodes s's writes as an attribute list — a delta's — into a
// pooled encoder the caller releases; nil when s wrote nothing.
func (s *Session) pendingList() *wire.Encoder {
	if len(s.pending) == 0 {
		return nil
	}
	e := wire.AcquireEncoder()
	attrs.AppendPairs(e, s.pending)
	clear(s.pending)
	s.pending = s.pending[:0]
	return e
}

// land writes s's pending writes into its record, shipping nothing.
func (s *Session) land() {
	if l := s.pendingList(); l != nil {
		st, rl := s.st, s.st.lock()
		rl.mu.Lock()
		st.list = attrs.Merge(st.list, 0, nil, l.Bytes())
		rl.mu.Unlock()
		l.Release()
	}
}

// sessState is one resident copy of a session, 48 bytes: its id, its
// attribute list and replication generation, and where its copies live. It
// is the one representation wherever a session lives (primary, replica, the
// stateless modes' request-owned state).
type sessState struct {
	// key is the record's id, written once by newSessState before the state
	// is published, and read without a lock.
	key [cluster.IDLen]byte
	// list is the record's attributes as an attribute list (internal/attrs)
	// in key order, each key once. It is only ever built by attrs.Merge, so
	// it is well-formed, and it is read in place. The record lock guards it.
	list string
	// gen numbers the deltas shipped from (primary) or applied to
	// (secondary) this record. The record lock guards it.
	gen uint64
	// place is a placement, changed only by compare-and-swap (in shipTo,
	// unless it is the epoch alone).
	place atomic.Uint64
}

// newSessState makes the state of record id (16 bytes) holding list.
func newSessState[K string | []byte](id K, list string, gen uint64) *sessState {
	st := &sessState{list: list, gen: gen}
	copy(st.key[:], id)
	return st
}

// recordLock is one stripe of the record locks, alone on its cache line.
// Stripe i guards shard i of every manager's table — which records it
// holds — and the list and gen of each of those records.
//
// Lock rule: a stripe is never held across an RPC or together with another
// stripe, and a replBatcher's mu is the only lock taken under it: a delta
// lands, takes its generation and its place in the secondary's pending
// batch in one step, so per-session wire order equals generation order,
// and both equal the order writes landed in.
type recordLock struct {
	//wls:lockorder servlet.recordLock.mu<servlet.replBatcher.mu
	mu sync.Mutex
	_  [64 - unsafe.Sizeof(sync.Mutex{})]byte
}

// recordLocks are the stripes, picked by a record id's first byte modulo
// stripes: ids are 16 random bytes (cluster.Member.NewID), so records
// spread evenly. A manager's table has a shard per stripe.
var recordLocks [stripes]recordLock

const stripes = 64

// lock returns st's stripe of the record locks.
func (st *sessState) lock() *recordLock { return &recordLocks[st.key[0]%stripes] }

// data returns the record's current attribute list.
func (st *sessState) data() string {
	l := st.lock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return st.list
}

// id returns the record's id: a string over st.key, which never changes, so
// it costs neither an allocation nor a lock.
func (st *sessState) id() string { return unsafe.String(&st.key[0], cluster.IDLen) }

// tableKey returns id as a session-table key; ok is false for anything but
// a record id, 16 bytes.
func tableKey[K string | []byte](id K) (key [cluster.IDLen]byte, ok bool) {
	if len(id) != cluster.IDLen {
		return key, false
	}
	copy(key[:], id)
	return key, true
}

// placement is where a session's copies live, in one word: the low half of
// the ring epoch it was last checked against (0 on a replica), the
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

	// parts is the consistent-hash ring secondaries are placed on, built
	// once by attach unless a caller substituted one (see partition.go);
	// detach cancels one it built. ringMoves counts sessions re-shipped
	// because an epoch change moved their ring placement.
	parts     atomic.Pointer[partition.Views]
	attach    sync.Once
	detach    func()
	ringMoves atomic.Uint64

	// repl is the server-name table a placement's secondary indexes, with
	// each name's replication batcher: append-only and copied on write, read
	// without a lock. Entry 0 is "", no secondary; names are the view's.
	repl atomic.Pointer[[]*replBatcher]

	// shards is the session table, shard i under stripe i's lock.
	shards [stripes]sessionTable
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
	}
	sm.repl.Store(&[]*replBatcher{{}})
	return sm
}

// newID names a new record: 16 bytes from the member's id source, which
// no client can count its way to and a restarted server does not repeat.
func (sm *SessionManager) newID() [cluster.IDLen]byte { return sm.member.NewID() }

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
func (sm *SessionManager) ResidentSessions() (n int) {
	for i := range sm.shards {
		recordLocks[i].mu.Lock()
		n += sm.shards[i].len()
		recordLocks[i].mu.Unlock()
	}
	return n
}

// shard returns key's stripe and sm's shard of it, for the caller to lock.
func (sm *SessionManager) shard(key *[cluster.IDLen]byte) (*recordLock, *sessionTable) {
	return &recordLocks[key[0]%stripes], &sm.shards[key[0]%stripes]
}

// get returns the record of id, or nil.
func (sm *SessionManager) get(id []byte) *sessState {
	if key, ok := tableKey(id); ok {
		rl, tab := sm.shard(&key)
		rl.mu.Lock()
		defer rl.mu.Unlock()
		return tab.get(key)
	}
	return nil
}

// each calls fn with every record, one stripe at a time under its lock, so
// fn must not lock, block or change the table.
func (sm *SessionManager) each(fn func(*sessState)) {
	for i := range sm.shards {
		rl := &recordLocks[i]
		rl.mu.Lock()
		sm.shards[i].each(fn)
		rl.mu.Unlock()
	}
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
	id, list := c.ID, []byte(nil)
	switch {
	case sm.mode == SessionsClientCookie:
		list = c.State
	case len(id) > 0:
		// A persistent id with no row names no session: it gets a fresh
		// one, as adopt's do.
		row, ok := sm.db.Get("wls.sessions", string(c.ID))
		if !ok {
			id = nil
		}
		e := wire.MakeEncoder(64)
		attrs.AppendMap(&e, row.Fields)
		list = e.Bytes()
	}
	if len(id) == 0 {
		nid := sm.newID()
		id = nid[:]
	}
	return acquireSession(newSessState(id, attrs.Merge("", 0, nil, list), 0))
}

func (sm *SessionManager) resolveReplicated(ctx context.Context, c *CookieRef) *Session {
	st := sm.get(c.ID)
	if st == nil {
		st = sm.adopt(ctx, c)
	}
	if p := st.placed(); p.primary() {
		sm.maybeRebalance(ctx, st, p)
	} else if sm.ship(ctx, st, nil, p, sm.chooseSecondary(st.id(), "")) {
		// Fig 2 failover: the plug-in routed to us, the secondary. We became
		// the primary and created a new secondary.
		if sp := trace.FromContext(ctx); sp != nil {
			sp.Annotate("session-promoted", cluster.IDString(st.id()))
		}
	}
	return acquireSession(st)
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
func (sm *SessionManager) adopt(ctx context.Context, c *CookieRef) *sessState {
	var st *sessState
	for _, sec := range sm.member.OffersOf(sm.service) {
		if len(c.ID) == 0 || sec.Name != string(c.Secondary) || sec.Name == sm.selfName {
			continue
		}
		if list, gen, err := sm.fetchFrom(ctx, sec, c.ID); err == nil {
			st = newSessState(c.ID, attrs.Merge("", 0, nil, list), gen)
			// At the ring's current epoch: the secondary stays the cookie's,
			// wherever the ring would place it, until the next epoch change.
			st.place.Store(uint64(primaryAt(uint32(sm.Partitions().Current().Epoch), sm.secIndex(sec.Name))))
		}
		break
	}
	if st == nil {
		id := sm.newID()
		st = newSessState(id[:], attrs.Empty, 0)
		st.place.Store(uint64(sm.chooseSecondary(st.id(), "")))
	}
	rl, tab := sm.shard(&st.key)
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if cur := tab.get(st.key); cur != nil {
		return cur // a parallel request of the fetched session got here first
	}
	tab.put(st)
	return st
}

// chooseSecondary returns a primary's placement with a newly picked
// secondary among the live engines (cluster.Picker), fed the session's
// clockwise walk of the consistent-hash ring, at the ring's epoch. It never
// picks avoid, the secondary a ship just failed against ("" on first
// placement): a dead server stays in the view until the failure detector
// drops it.
func (sm *SessionManager) chooseSecondary(id, avoid string) placement {
	v := sm.Partitions().Current()
	self := cluster.MemberInfo{Name: sm.selfName, Machine: sm.selfMachine, PreferredSecondaryGroups: sm.selfGroups}
	pick := cluster.NewPicker(self, sm.member.OffersOf(sm.service), avoid)
	v.Ring.Walk(id, pick.Offer)
	return primaryAt(uint32(v.Epoch), sm.secIndex(pick.Pick()))
}

// finish persists/replicates the session after the servlet ran, and
// returns the cookie the client must store now — none when held, the
// cookie it sent, still says all that cookie would. A replicated
// session's does when it names this session, this server and its
// secondary; a stateless session's when it names this session and no
// servers, and (client-cookie mode) the request wrote no state. Deltas
// ride the per-secondary batcher.
func (sm *SessionManager) finish(ctx context.Context, s *Session, held *CookieRef) string {
	namesOnlyIt := string(held.ID) == s.ID && len(held.Primary) == 0 && len(held.Secondary) == 0
	switch sm.mode {
	case SessionsClientCookie:
		if namesOnlyIt && len(s.pending) == 0 {
			return ""
		}
		s.land()
		return encodeCookie(s.ID, "", "", s.st.list)
	case SessionsPersistent:
		s.land()
		sm.db.Put("wls.sessions", s.ID, attrs.Map(s.st.list))
		if namesOnlyIt && held.State == nil {
			return ""
		}
		return Cookie{ID: s.ID}.Encode()
	default:
		st := s.st
		if l := s.pendingList(); l != nil {
			sm.ship(ctx, st, l.Bytes(), 0, 0)
			l.Release()
		}
		sec := sm.secName(st.placed().sec())
		if string(held.ID) == s.ID && string(held.Primary) == sm.selfName && string(held.Secondary) == sec {
			return ""
		}
		return encodeCookie(s.ID, sm.selfName, sec, attrs.Empty)
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

	mu      sync.Mutex // guards pending and spare
	pending *replBatch
	// spare is the last batch no follower joined, zeroed: nothing but its
	// leader held it, so the next leader takes it instead of allocating.
	spare *replBatch

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
// response is returned (§3.2): delta, the attribute list a request wrote,
// or the whole record when delta is nil. With to != 0 it changes the
// placement from → to and seeds to's secondary — or reports false: a
// parallel request changed it first, and did the shipping. If the secondary
// cannot be reached it places and seeds another, once; if that fails too,
// the next write retries.
func (sm *SessionManager) ship(ctx context.Context, st *sessState, delta []byte, from, to placement) bool {
	failed, err := sm.shipTo(ctx, st, delta, from, to)
	if err == errMoved {
		return false
	}
	for err != nil {
		from = st.placed()
		if from.sec() != failed {
			break // a parallel request has re-placed it, and seeded after our write
		}
		to = sm.chooseSecondary(st.id(), sm.secName(failed))
		if _, err = sm.shipTo(ctx, st, nil, from, to); err != errMoved {
			break // seeded, or the next write retries; the flush span carries the error
		}
	}
	return true
}

// shipTo lands delta in st's record, if there is one, and sends it — or
// the whole record — as one delta entry through the batcher of st's
// secondary, and returns that secondary's index. With to != 0 it first
// replaces the placement from with to, or fails with errMoved — under the
// record's lock, in the step that takes the seed's generation and place on
// the wire, so a change ships exactly once: a parallel request's delta
// came before (to the old secondary; the seed holds its write) or follows
// the seed to the new. A delta lands even when there is no secondary.
func (sm *SessionManager) shipTo(ctx context.Context, st *sessState, delta []byte, from, to placement) (sec uint32, err error) {
	rl := st.lock()
	rl.mu.Lock()
	if delta != nil {
		st.list = attrs.Merge(st.list, 0, nil, delta)
	}
	if to == 0 {
		to = st.placed()
	} else if !st.place.CompareAndSwap(uint64(from), uint64(to)) {
		err = errMoved
	}
	if sec = to.sec(); sec == 0 || err != nil {
		rl.mu.Unlock()
		return 0, err
	}
	rb := (*sm.repl.Load())[sec]
	rb.mu.Lock()
	b := rb.pending
	leader := b == nil
	if leader {
		b, rb.spare = rb.spare, nil
		if b == nil {
			b = &replBatch{}
		}
		b.enc = wire.AcquireEncoder()
		rb.pending = b
	}
	st.gen++
	b.enc.RawBytes(st.key[:])
	b.enc.Uint64(st.gen)
	keys := attrs.Len(st.list)
	if delta == nil {
		b.enc.Raw(st.list)
	} else {
		b.enc.RawBytes(delta)
		keys = attrs.Len(delta)
	}
	b.count++
	if !leader && b.done == nil {
		b.done = make(chan struct{})
	}
	done := b.done
	rb.mu.Unlock()
	rl.mu.Unlock()

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
	err = rb.flush(ctx, b.enc.Bytes(), count, keys)
	b.err = err
	if followers != nil {
		close(followers)
	}
	rb.flushMu.Unlock()
	b.enc.Release()
	if followers == nil {
		// No follower reads b.err after done closes, so b is ours alone.
		*b = replBatch{}
		rb.mu.Lock()
		rb.spare = b
		rb.mu.Unlock()
	}
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

// fetchFrom copies a session's attribute list and generation from server's
// engine (Fig 3). The list is one attrs.Read accepted, with nothing after it.
func (sm *SessionManager) fetchFrom(ctx context.Context, server cluster.MemberInfo, id []byte) ([]byte, uint64, error) {
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
	return readFetchReply(res.Body)
}

var errTrailing = errors.New("servlet: bytes after the attribute list")

// readFetchReply reads a fetch reply: the generation, then the list.
func readFetchReply(b []byte) ([]byte, uint64, error) {
	d := wire.NewDecoder(b)
	gen := d.Uint64()
	list, err := attrs.Read(d, false)
	if err == nil && d.Remaining() > 0 {
		err = errTrailing
	}
	return list, gen, err
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
// generation check skips the apply, so batched entries stay framed. The
// entry merges into the replica's record as one new string, or none when
// every value it carries is the one held; a record the replica does not
// hold yet is that string and its sessState, all under one stripe hold.
func (sm *SessionManager) applyUpdate(d *wire.Decoder) error {
	idB := d.Raw(cluster.IDLen)
	gen := d.Uint64()
	list, err := attrs.Read(d, false)
	if err != nil {
		return err
	}
	key, _ := tableKey(idB) // whole: attrs.Read fails after an id cut short
	rl, tab := sm.shard(&key)
	rl.mu.Lock()
	if st := tab.get(key); st == nil {
		tab.put(newSessState(idB, attrs.Merge("", 0, nil, list), gen))
	} else if gen > st.gen || st.gen == 0 {
		st.gen = gen
		st.list = attrs.Merge(st.list, 0, nil, list)
	}
	rl.mu.Unlock()
	return nil
}

// handleFetch returns a replica's generation and attribute list (RMI
// handler), read under one hold of the record's stripe.
func (sm *SessionManager) handleFetch(args []byte) ([]byte, error) {
	d := wire.NewDecoder(args)
	id := d.BytesNoCopy()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if key, ok := tableKey(id); ok {
		rl, tab := sm.shard(&key)
		rl.mu.Lock()
		defer rl.mu.Unlock()
		if st := tab.get(key); st != nil {
			e := wire.NewEncoder(binary.MaxVarintLen64 + len(st.list))
			e.Uint64(st.gen)
			e.Raw(st.list)
			return e.Bytes(), nil
		}
	}
	return nil, &rmi.AppError{Msg: "no such session: " + cluster.IDString(string(id))}
}

// ---------------------------------------------------------------------------
// URL rewriting (§3.2: "Equivalent functionality can also be provided
// using URL rewriting.") For cookie-less clients the session token is
// carried as a path suffix: /cart;wlsession=<token>.

// urlSessionMarker separates the path from the rewritten session token.
const urlSessionMarker = ";wlsession="

// EncodeURL appends the session token to a path, the servlet-spec
// encodeURL analogue.
//
//wls:nolint unreached -- test hook: TestCookieElisionReplicated
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
