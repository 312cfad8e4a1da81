// Package singleton implements the fourth clustered-service type of §3.4:
// services that are "active on only one server in the cluster at a time".
//
// Two flavours, as in the paper:
//
//   - Continuous singletons (message queues, transaction managers, admin
//     functions) are active on exactly one server at all times. An
//     administrator supplies a preferred-server list and "the clustering
//     infrastructure keeps it on the most-preferred server that is
//     currently active": every candidate runs a Host; the host that is the
//     highest-ranked live candidate acquires the lease, and a lower-ranked
//     owner voluntarily hands off when a better candidate rejoins.
//
//   - On-demand singletons (shared conversations, consistently-cached
//     entities, user profile data) are active on at most one server and
//     are "activated on, or migrated to, the server where [they are] going
//     to be used". OnDemand tries to activate locally, and when another
//     server already owns the instance it returns that owner for remote
//     access.
//
// Split-brain avoidance follows the paper's recipe exactly: ownership is a
// lease (internal/lease) whose period is the grace period; a Host's Guard
// refuses operations once the lease is no longer provably held, so "the
// target server attempts to ensure that all of its operations associated
// with the service complete within the grace period"; and lease epochs act
// as fencing tokens for any state the service writes.
package singleton

import (
	"context"
	"errors"
	"sync"
	"time"

	"wls/internal/cluster"
	"wls/internal/lease"
	"wls/internal/rmi"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// Activatable is the service implementation contract. After Activate the
// service must rebuild its internal state from its backing store (§3.4:
// "after a singleton service is activated, it must establish its own
// internal state by accessing the backend store").
type Activatable interface {
	// Activate is called when this server wins ownership. epoch is the
	// fencing token to tag writes with.
	Activate(epoch uint64) error
	// Deactivate is called when ownership is lost or handed off. It must
	// stop all service operations before returning.
	Deactivate()
}

// Nop is an Activatable with no state to rebuild or stop: the service is
// only its ownership.
type Nop struct{}

// Activate implements Activatable.
func (Nop) Activate(uint64) error { return nil }

// Deactivate implements Activatable.
func (Nop) Deactivate() {}

// ErrNotOwner is returned by Guard when this server does not (provably)
// hold the service.
var ErrNotOwner = errors.New("singleton: not the owner")

// Config describes one continuous singleton service.
type Config struct {
	// Service is the unique service name (also the lease key).
	Service string
	// Preferred lists candidate servers, most preferred first. Empty
	// means every cluster member is an equal candidate (ring order
	// breaks ties).
	Preferred []string
}

// retryInterval is how often a non-owner candidate re-attempts the lease.
const retryInterval = 100 * time.Millisecond

// Host is one server's candidacy for a continuous singleton service.
type Host struct {
	cfg      Config
	server   string
	clock    vclock.Clock
	member   *cluster.Member
	holder   *lease.Holder
	impl     Activatable
	node     rmi.Node
	managers []string
	// retries runs evaluate every retryInterval on its own goroutine: it
	// makes lease and handoff RPCs.
	retries *vclock.Loop

	// mu guards activation state; ownership checks read the lease
	// holder while it is held (Holder.Held only, never Acquire).
	//
	//wls:lockorder singleton.Host.mu<lease.Holder.mu
	mu       sync.Mutex
	active   bool
	unwatch  func() // removes Start's membership listener; nil while stopped
	freeSeen int    // consecutive free-lease sightings (second-chance patience)
}

// NewHost creates a candidacy on the given server's RMI registry; the
// registry carries the handoff protocol by which a more-preferred candidate
// reclaims the service from a lower-ranked owner.
func NewHost(cfg Config, member *cluster.Member, registry *rmi.Registry, impl Activatable, managerAddrs ...string) *Host {
	self := member.Self().Name
	node := registry.Node()
	h := &Host{
		cfg:      cfg,
		server:   self,
		clock:    member.Clock(),
		member:   member,
		impl:     impl,
		node:     node,
		managers: managerAddrs,
		holder:   lease.NewHolder(member.Clock(), node, cfg.Service, self, lease.Push, managerAddrs...),
	}
	h.retries = vclock.NewLoop(h.clock, h.retry, true)
	h.holder.OnLost(h.onLeaseLost)
	registry.Register(h.handoffService())
	return h
}

// handoffServiceName is the per-service RMI endpoint for migration requests.
func handoffServiceName(service string) string { return "wls.singleton." + service }

// handoffService answers migration requests: a strictly better-ranked live
// candidate may reclaim the service ("keeps it on the most-preferred server
// that is currently active"), in which case this owner deactivates and
// releases before replying.
func (h *Host) handoffService() *rmi.Service {
	return &rmi.Service{
		Name:   handoffServiceName(h.cfg.Service),
		System: true,
		Methods: map[string]rmi.MethodSpec{
			"handoff": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				requester := d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				if !h.Active() {
					return nil, &rmi.AppError{Msg: "not the owner"}
				}
				if !h.outranks(requester) {
					return nil, &rmi.AppError{Msg: "requester does not outrank owner"}
				}
				h.deactivate(true)
				return nil, nil
			}},
		},
	}
}

// outranks reports whether requester is a strictly better host than this
// server by preference rank.
func (h *Host) outranks(requester string) bool {
	return h.rankOf(requester) < h.rank()
}

// rankOf returns a server's preference rank (len(Preferred) if unlisted).
func (h *Host) rankOf(server string) int {
	for i, name := range h.cfg.Preferred {
		if name == server {
			return i
		}
	}
	return len(h.cfg.Preferred)
}

// Start begins competing for ownership and watching membership for
// preference-based handoff. Starting a started host does nothing.
func (h *Host) Start() {
	unwatch := h.member.OnEvent(func(ev cluster.Event) {
		// A higher-preference candidate came back: hand off. A failure of
		// the current owner: try to take over (the lease expiry also
		// covers this; the event just makes it prompt).
		switch ev.Kind {
		case cluster.EventJoined, cluster.EventFailed:
			h.evaluate()
		}
	})
	h.mu.Lock()
	if h.unwatch != nil {
		h.mu.Unlock()
		unwatch()
		return
	}
	h.unwatch = unwatch
	h.retries.Start(retryInterval)
	h.mu.Unlock()
	h.evaluate()
}

// Stop abandons the candidacy; if active, the service deactivates and the
// lease is released so a peer can take over promptly.
func (h *Host) Stop() {
	h.mu.Lock()
	h.retries.Stop()
	unwatch := h.unwatch
	h.unwatch = nil
	wasActive := h.active
	h.active = false
	h.mu.Unlock()
	if unwatch != nil {
		unwatch()
	}
	if wasActive {
		h.impl.Deactivate()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = h.holder.Release(ctx)
		cancel()
	} else {
		h.holder.Stop()
	}
}

// Active reports whether this host currently runs the service.
func (h *Host) Active() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.active && h.holder.Held()
}

// Epoch returns the fencing epoch of the current ownership (0 if inactive).
func (h *Host) Epoch() uint64 {
	if !h.Active() {
		return 0
	}
	return h.holder.Epoch()
}

// Guard runs op only while ownership is provably held, implementing the
// grace-period contract: the lease must be valid both before and after the
// operation, so the op provably completed within the lease period.
//
//wls:nolint unreached -- library-only: §3.4, TestSplitBrainFrozenOwner
func (h *Host) Guard(op func() error) error {
	if !h.Active() {
		return ErrNotOwner
	}
	if err := op(); err != nil {
		return err
	}
	if !h.Active() {
		// Ownership may have moved mid-operation; the caller must treat
		// the result as unreliable (and rely on epoch fencing for writes).
		return ErrNotOwner
	}
	return nil
}

// rank returns this server's preference rank (lower is better) and whether
// it is the best-ranked live candidate right now.
func (h *Host) isBestCandidate() bool {
	alive := h.member.Alive()
	aliveSet := make(map[string]bool, len(alive))
	for _, m := range alive {
		aliveSet[m.Name] = true
	}
	if len(h.cfg.Preferred) == 0 {
		// Ring order breaks ties: first live server wins.
		return len(alive) > 0 && alive[0].Name == h.server
	}
	for _, name := range h.cfg.Preferred {
		if aliveSet[name] {
			return name == h.server
		}
	}
	// No preferred server is alive: any live server may host it; ring
	// order breaks the tie.
	return len(alive) > 0 && alive[0].Name == h.server
}

// evaluate decides whether to acquire, keep, or hand off ownership.
func (h *Host) evaluate() {
	h.mu.Lock()
	if h.unwatch == nil {
		h.mu.Unlock()
		return
	}
	active := h.active
	h.mu.Unlock()

	best := h.isBestCandidate()
	switch {
	case !active && best:
		if h.tryAcquire() {
			return
		}
		// The lease is held by a lower-ranked owner (e.g. we just
		// rejoined): ask it to hand the service off, then take the lease.
		if h.requestHandoff() {
			h.tryAcquire()
		}
	case !active && !best:
		// Second chance: preference only arbitrates between live
		// candidacies. If the lease stays free (the preferred server is up
		// but not hosting — e.g. its candidacy was stopped), a lower-ranked
		// candidate takes it rather than leaving the service down. Patience
		// is staggered by rank so the best candidate always gets the first
		// shot and candidates do not trade the lease back and forth.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		owner, _, err := lease.QueryOwner(ctx, h.node, h.cfg.Service, h.managers...)
		cancel()
		if err != nil || owner != "" {
			h.mu.Lock()
			h.freeSeen = 0
			h.mu.Unlock()
			return
		}
		h.mu.Lock()
		h.freeSeen++
		patient := h.freeSeen > h.rank()
		h.mu.Unlock()
		if patient {
			h.tryAcquire()
		}
	}
}

// rank returns this server's position on the preferred list (worst-case
// the list length for unlisted servers).
func (h *Host) rank() int { return h.rankOf(h.server) }

// requestHandoff asks the current owner to migrate the service here.
func (h *Host) requestHandoff() bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	owner, _, err := lease.QueryOwner(ctx, h.node, h.cfg.Service, h.managers...)
	if err != nil || owner == "" || owner == h.server {
		return owner == "" // free lease: worth re-trying acquire
	}
	info, ok := h.member.Lookup(owner)
	if !ok {
		return false // owner presumed dead; the lease will expire
	}
	stub := rmi.NewStub(handoffServiceName(h.cfg.Service), h.node, rmi.StaticView(info.Addr))
	e := wire.NewEncoder(16)
	e.String(h.server)
	_, err = stub.Invoke(ctx, "handoff", e.Bytes())
	return err == nil
}

func (h *Host) tryAcquire() bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	err := h.holder.Acquire(ctx)
	cancel()
	if err != nil {
		return false // held elsewhere or manager unreachable; retry later
	}
	if err := h.impl.Activate(h.holder.Epoch()); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = h.holder.Release(ctx)
		cancel()
		return false
	}
	h.mu.Lock()
	h.active = true
	h.freeSeen = 0
	h.mu.Unlock()
	return true
}

func (h *Host) deactivate(release bool) {
	h.mu.Lock()
	if !h.active {
		h.mu.Unlock()
		return
	}
	h.active = false
	h.mu.Unlock()
	h.impl.Deactivate()
	if release {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = h.holder.Release(ctx)
		cancel()
	}
}

func (h *Host) onLeaseLost() {
	h.deactivate(false)
}

func (h *Host) retry(uint64) time.Duration {
	h.evaluate()
	return retryInterval
}
