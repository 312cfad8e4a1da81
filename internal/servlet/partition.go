package servlet

import (
	"context"

	"wls/internal/partition"
)

// SetPartitions attaches a consistent-hash ring to the engine's session
// manager: new sessions place their secondary by walking the session key's
// ring clockwise instead of the engines in name order, and existing primary
// sessions re-ship to their new secondary when an epoch change moves their
// placement (see SessionManager.maybeRebalance).
func (e *Engine) SetPartitions(vs *partition.Views) { e.sessions.SetPartitions(vs) }

// SetPartitions attaches the ring views (see Engine.SetPartitions).
func (sm *SessionManager) SetPartitions(vs *partition.Views) { sm.parts.Store(vs) }

// Partitions returns the attached views (nil if none).
func (sm *SessionManager) Partitions() *partition.Views { return sm.parts.Load() }

// ringView returns the attached ring's current view (nil without one).
func (sm *SessionManager) ringView() *partition.View {
	if vs := sm.parts.Load(); vs != nil {
		return vs.Current()
	}
	return nil
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
	v := sm.ringView() // the steady state is two atomic loads and no iteration
	for ; v != nil && p.epoch() != uint32(v.Epoch); p = st.placed() {
		to := sm.chooseSecondary(st.id(), p, "")
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
	// Attached reports whether a ring is wired at all.
	Attached bool
	// Epoch and Fingerprint identify the current view (0/0 before the
	// first membership update).
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

// PartitionStats snapshots the ring attachment state.
func (sm *SessionManager) PartitionStats() PartitionStats {
	ps := PartitionStats{RingMoves: sm.ringMoves.Load()}
	vs := sm.parts.Load()
	var cur uint32
	if vs != nil {
		ps.Attached = true
		if v := vs.Current(); v != nil {
			cur = uint32(v.Epoch)
			ps.Epoch = v.Epoch
			ps.Fingerprint = v.Ring.Fingerprint()
			ps.Members = v.Ring.Len()
		}
	}
	sm.mu.Lock()
	ps.Resident = len(sm.sessions)
	for _, st := range sm.sessions {
		if e := st.placed().epoch(); e != 0 && e < cur {
			ps.SessionsBehind++
		}
	}
	sm.mu.Unlock()
	return ps
}
