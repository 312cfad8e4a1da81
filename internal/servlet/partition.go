package servlet

import (
	"context"

	"wls/internal/partition"
)

// SetPartitions substitutes vs, already attached to the membership layer
// (partition.Attach), for the ring the engine's session manager would build
// itself: for a caller that keeps one ring per server across engine
// rebuilds, or seeds its own. Call it before the first request.
func (e *Engine) SetPartitions(vs *partition.Views) { e.sessions.parts.Store(vs) }

// Partitions returns the ring views the manager places secondaries on. A
// manager no caller gave views to builds them the first time it needs
// them, attached to the live members offering its service: by then the
// service is advertised, so the ring's first view holds this server.
func (sm *SessionManager) Partitions() *partition.Views {
	if vs := sm.parts.Load(); vs != nil {
		return vs
	}
	sm.attach.Do(func() {
		vs := partition.NewViews(partition.Config{})
		sm.detach = partition.Attach(vs, sm.member, sm.service)
		sm.parts.CompareAndSwap(nil, vs)
	})
	return sm.parts.Load()
}

// Stop detaches a ring the manager built from the membership, which outlives
// it across a restart; secondaries are then placed on the ring's last view.
func (sm *SessionManager) Stop() {
	if sm.Partitions(); sm.detach != nil {
		sm.detach()
	}
}

// maybeRebalance runs on the request path of a primary session placed at
// p: when the ring epoch moved since the placement was last checked,
// recompute the secondary and, if it changed, re-seed the new secondary
// with the full state. Parallel requests of the session may all get here:
// the placement changes by compare-and-swap, so one ships and counts the
// move and the others look again. The response cookie names the new pair at
// once. The old secondary keeps its copy, which makes the handoff lossless:
// until the client has the new cookie, a primary failure still finds state
// at the cookie-named replica.
func (sm *SessionManager) maybeRebalance(ctx context.Context, st *sessState, p placement) {
	v := sm.Partitions().Current() // the steady state is two atomic loads and no iteration
	for ; p.epoch() != uint32(v.Epoch); p = st.placed() {
		to := sm.chooseSecondary(st.id(), "")
		if to.sec() == 0 || to.sec() == p.sec() {
			if st.place.CompareAndSwap(uint64(p), uint64(primaryAt(to.epoch(), p.sec()))) {
				return
			}
		} else if sm.ship(ctx, st, nil, p, to) {
			sm.ringMoves.Add(1)
			return
		}
	}
}

// PartitionStats is the session manager's view of the ring for the admin
// surface (wlsadmin partitions).
type PartitionStats struct {
	// Epoch and Fingerprint identify the current view.
	Epoch       uint64
	Fingerprint uint64
	// Members is the ring's member count.
	Members int
	// RingMoves counts primary sessions re-shipped because an epoch change
	// moved their placement (cumulative).
	RingMoves uint64
	// SessionsBehind counts local primary sessions whose placement has not
	// yet been checked against the current epoch — the in-flight rebalance
	// backlog (they catch up on their next request).
	SessionsBehind int
	// Resident is the total sessions (primary or replica) in this
	// engine's memory.
	Resident int
}

// PartitionStats snapshots the manager's ring state.
func (sm *SessionManager) PartitionStats() PartitionStats {
	v := sm.Partitions().Current()
	ps := PartitionStats{Epoch: v.Epoch, Fingerprint: v.Ring.Fingerprint(), Members: v.Ring.Len(), RingMoves: sm.ringMoves.Load()}
	cur := uint32(v.Epoch)
	sm.each(func(st *sessState) {
		ps.Resident++
		if e := st.placed().epoch(); e != 0 && e < cur {
			ps.SessionsBehind++
		}
	})
	return ps
}
