package partition

import (
	"sync"
	"sync/atomic"

	"wls/internal/cluster"
)

// View is one epoch of the cluster's partitioning. Views are immutable; Views.Current hands out the
// latest by atomic pointer, so the ring-lookup path takes no lock.
type View struct {
	// Epoch counts ring changes seen by this server, starting at 1. It is
	// local-monotonic: servers bump it independently as their membership
	// views converge, and compare rings via Fingerprint, not Epoch.
	Epoch uint64
	// Ring is the current placement.
	Ring *Ring
}

// Views publishes epoch-versioned rings for one server. Feed it member
// sets with Update (typically via Attach, which wires it to the cluster
// membership layer); read the latest with Current.
type Views struct {
	cfg Config

	// mu serializes ring rebuilds and change notifications, so
	// subscribers observe epochs strictly in order. Subscribers run under
	// it and must not block (spawn a goroutine for RPC work).
	mu   sync.Mutex
	subs []func(old, new *View)

	cur atomic.Pointer[View]
}

// NewViews creates a publisher (no ring until the first Update).
func NewViews(cfg Config) *Views {
	return &Views{cfg: cfg}
}

// Current returns the latest view (nil before the first Update). The
// returned view and its rings are immutable.
func (vs *Views) Current() *View { return vs.cur.Load() }

// OnChange subscribes to epoch changes. fn runs synchronously on the
// updating goroutine (heartbeat delivery, typically) with epochs strictly
// in order; it must not block — hand RPC work to a goroutine.
//
//wls:nolint unreached -- test hook: TestAdminPartitionsEndpoint
func (vs *Views) OnChange(fn func(old, new *View)) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.subs = append(vs.subs, fn)
}

// Update rebuilds the ring for the given member set, publishing a new
// epoch when (and only when) the set actually changed.
func (vs *Views) Update(members []string) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	old := vs.cur.Load()
	if old != nil && sameMembers(old.Ring.members, members) {
		return
	}
	next := &View{Epoch: 1, Ring: New(vs.cfg, members)}
	if old != nil {
		next.Epoch = old.Epoch + 1
	}
	vs.cur.Store(next)
	for _, fn := range vs.subs {
		fn(old, next)
	}
}

// sameMembers reports whether candidate (unsorted, duplicates tolerated)
// names exactly the ring's member set — set equality without allocating
// on the common no-change path. O(n²), fine at cluster scale.
func sameMembers(ringMembers, candidate []string) bool {
	for _, c := range candidate {
		found := false
		for _, m := range ringMembers {
			if m == c {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, m := range ringMembers {
		found := false
		for _, c := range candidate {
			if c == m {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Attach wires a publisher to the cluster membership layer: the ring
// tracks the live members offering the given service, rebuilding (and
// bumping the epoch) as servers join, fail, or change advertisements.
// Call after the member is constructed; the initial ring is published
// immediately from the current view. Cancel detaches vs from m.
func Attach(vs *Views, m *cluster.Member, service string) (cancel func()) {
	update := func() {
		offers := m.OffersOf(service)
		names := make([]string, 0, len(offers))
		for _, mi := range offers {
			names = append(names, mi.Name)
		}
		vs.Update(names)
	}
	cancel = m.OnEvent(func(cluster.Event) { update() })
	update()
	return cancel
}
