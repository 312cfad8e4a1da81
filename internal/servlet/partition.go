package servlet

import (
	"context"

	"wls/internal/partition"
)

// SetPartitions attaches a consistent-hash ring to the engine's session
// manager: new sessions pick their secondary from the key's ring replica
// set instead of the ad-hoc next-in-ring-order rule, and existing primary
// sessions re-ship to their new secondary when an epoch change moves their
// placement (see SessionManager.maybeRebalance).
func (e *Engine) SetPartitions(vs *partition.Views) { e.sessions.SetPartitions(vs) }

// SetPartitions attaches the ring views (see Engine.SetPartitions).
func (sm *SessionManager) SetPartitions(vs *partition.Views) { sm.parts.Store(vs) }

// Partitions returns the attached views (nil if none).
func (sm *SessionManager) Partitions() *partition.Views { return sm.parts.Load() }

// ringSecondary picks the session's ring-placed secondary: the first live
// replica of key that is not this server, preferring a replica on another
// machine (preserving the §3.2 anti-affinity property the old ring-order
// rule had), and never avoid (see chooseSecondary).
func (sm *SessionManager) ringSecondary(v *partition.View, key, avoid string) (string, bool) {
	var buf [8]string
	reps := v.Ring.ReplicasInto(key, buf[:0])
	fallback := ""
	for _, name := range reps {
		if name == sm.selfName || name == avoid {
			continue
		}
		info, ok := sm.member.Lookup(name)
		if !ok {
			continue // ring lags membership; skip the dead replica
		}
		if sm.selfMachine != "" && info.Machine == sm.selfMachine {
			if fallback == "" {
				fallback = name
			}
			continue
		}
		return name, true
	}
	return fallback, fallback != ""
}

// maybeRebalance runs on the request path of a primary session (which
// serializes all access to the session's placement fields, so no
// background goroutine races the request flow): when the ring epoch moved
// since the session was last placed, recompute the ring secondary and, if
// it changed, re-seed the new secondary with the full state. The response
// cookie re-encodes automatically (setSecondary drops the cached one), so
// the client learns the new pair on this very response. The old
// secondary keeps its copy, which is what makes the handoff lossless: until
// the client has the new cookie, a primary failure still finds state at the
// cookie-named replica.
//
//wls:hotpath
func (sm *SessionManager) maybeRebalance(ctx context.Context, st *sessState) {
	vs := sm.parts.Load()
	if vs == nil {
		return
	}
	v := vs.Current()
	if v == nil || st.epoch.Load() == uint32(v.Epoch) {
		return // steady state: two atomic loads, no allocation
	}
	st.epoch.Store(uint32(v.Epoch))
	want, ok := sm.ringSecondary(v, st.id, "")
	if !ok || want == st.secondary {
		return
	}
	st.setSecondary(want)
	sm.ringMoves.Add(1)
	sm.ship(ctx, st, nil)
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
		if e := st.epoch.Load(); e != 0 && e < cur {
			ps.SessionsBehind++
		}
	}
	sm.mu.Unlock()
	return ps
}
