package servlet

import (
	"context"
	"slices"

	"wls/internal/rmi"
)

// §3.2 keeps stateful session beans available by the same scheme as HTTP
// sessions: the EJB container keeps each bean's conversations in the records
// of a replicated manager of its own, through the calls below.

// NewReplicatedManager builds an in-memory replicated manager for service:
// its secondaries are the other servers offering service, placed on a ring
// over them (§3.2), and service's method table must carry ReplicaMethods.
func NewReplicatedManager(registry *rmi.Registry, service string) *SessionManager {
	return newSessionManager(SessionsReplicated, service, registry.Member(), registry.Node(), nil)
}

// ReplicaMethods adds the methods a manager's peers call —
// "session.update.batch" and "session.fetch" — to methods and returns it.
// Replication is cluster infrastructure: denying a primary's ship under
// load would silently strand secondaries, so both bypass admission.
func (sm *SessionManager) ReplicaMethods(methods map[string]rmi.MethodSpec) map[string]rmi.MethodSpec {
	methods["session.update.batch"] = rmi.MethodSpec{System: true, Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
		return nil, sm.handleUpdateBatch(c.Args)
	}}
	methods["session.fetch"] = rmi.MethodSpec{System: true, Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
		return sm.handleFetch(c.Args)
	}}
	return methods
}

// Create enters a new, empty primary record and seeds the secondary chosen
// for it; seeded reports the secondary's acknowledgement.
func (sm *SessionManager) Create(ctx context.Context) (s *Session, seeded bool) {
	st := sm.adopt(ctx, &CookieRef{}) // no cookie: a new session
	return acquireSession(st), sm.shipAcked(ctx, st, nil)
}

// Open returns a view of record id, promoting a replica first by the same
// compare-and-swap as a Fig 2 promotion (promoted: this call did it). An id
// this server does not hold yields nil: Open never adopts.
func (sm *SessionManager) Open(ctx context.Context, id []byte) (s *Session, promoted bool) {
	st := sm.get(id)
	if st == nil {
		return nil, false
	}
	if p := st.placed(); !p.primary() {
		promoted = sm.ship(ctx, st, nil, p, sm.chooseSecondary(st.id(), ""))
	}
	return acquireSession(st), promoted
}

// Flush ships what s wrote since it was opened or last flushed, as a
// request's finish does, and reports the secondary's acknowledgement.
func (sm *SessionManager) Flush(ctx context.Context, s *Session) bool {
	l := s.pendingList()
	if l == nil {
		return false
	}
	defer l.Release()
	return sm.shipAcked(ctx, s.st, l.Bytes())
}

// Close ends a use of s, shipping nothing — what it wrote since the last
// Flush lands in the record only — and returns the record's secondary (""
// for none).
func (sm *SessionManager) Close(s *Session) (secondary string) {
	s.land()
	secondary = sm.secName(s.st.placed().sec())
	releaseSession(s)
	return secondary
}

// Remove deletes record id from the table.
func (sm *SessionManager) Remove(id string) { sm.take(id, false) }

// Primaries lists the ids of the table's primary records, sorted.
func (sm *SessionManager) Primaries() []string {
	var ids []string
	sm.each(func(st *sessState) {
		if st.placed().primary() {
			ids = append(ids, st.id())
		}
	})
	slices.Sort(ids)
	return ids
}

// Parked is a primary record out of the table (passivated) until Unpark.
type Parked struct{ st *sessState }

// Park takes primary record id out of the table; a replica stays.
func (sm *SessionManager) Park(id string) (Parked, bool) {
	st := sm.take(id, true)
	return Parked{st}, st != nil
}

// take deletes record id (with primary, only a primary) and returns it.
func (sm *SessionManager) take(id string, primary bool) *sessState {
	if key, ok := tableKey(id); ok {
		rl, tab := sm.shard(&key)
		rl.mu.Lock()
		defer rl.mu.Unlock()
		if st := tab.get(key); st != nil && (!primary || st.placed().primary()) {
			return tab.del(key)
		}
	}
	return nil
}

// Unpark puts a parked record back in the table.
func (sm *SessionManager) Unpark(p Parked) {
	rl, tab := sm.shard(&p.st.key)
	rl.mu.Lock()
	tab.put(p.st)
	rl.mu.Unlock()
}

// shipAcked ships delta (nil: the whole record) and reports whether st's
// secondary took it; one it could not reach is replaced and seeded, as ship
// does.
func (sm *SessionManager) shipAcked(ctx context.Context, st *sessState, delta []byte) bool {
	sec, err := sm.shipTo(ctx, st, delta, 0, 0)
	if p := st.placed(); err != nil && p.sec() == sec {
		sm.ship(ctx, st, nil, p, sm.chooseSecondary(st.id(), sm.secName(sec)))
	}
	return err == nil && sec != 0
}
