// Package lease implements the highly-available lease manager of §3.4: the
// consensus-elected management leader "grants leases to own services", and
// "lease owners must regularly perform a handshake with the lease manager
// to renew their leases". The lease period is the grace period of the
// split-brain argument: a holder must ensure all operations for its service
// complete within it.
//
// Faithful details:
//
//   - The lease table is persistent ("so it survives failures, in order to
//     ensure that creation of a service occurs only once"): it lives in a
//     shared backend store, so a newly elected lease manager sees every
//     outstanding grant.
//   - Every grant carries an epoch that increments on each change of
//     ownership — the service-level fencing token. A deposed owner's
//     writes can be recognized by their stale epoch.
//   - Push leases (continuous singletons): the manager sweeps for expired
//     leases and notifies listeners, which re-place the service.
//   - Pull leases (on-demand singletons): expired leases are simply
//     grantable to the next caller; nobody is notified.
//   - Competing lease managers (a deposed leader that has not yet noticed)
//     are serialized by optimistic version checks on the lease table rows,
//     so at most one grant per row version can succeed.
package lease

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"wls/internal/rmi"
	"wls/internal/store"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// ServiceName is the RMI service the lease manager exposes.
const ServiceName = "wls.lease"

// Kind distinguishes push from pull leases.
type Kind byte

// Lease kinds.
const (
	// Pull leases are for on-demand singletons: expiry makes the lease
	// grantable but triggers no action.
	Pull Kind = iota
	// Push leases are for continuous singletons: the manager notifies
	// expiry listeners so the service is proactively re-placed.
	Push
)

// Table is the store table holding the persistent lease rows.
const Table = "wls.leases"

// Errors.
var (
	// ErrNotLeader is returned by a manager that is not the elected
	// leader; clients retry against the current leader.
	ErrNotLeader = errors.New("lease: not the lease manager leader")
	// ErrHeld means the lease is owned by someone else and unexpired.
	ErrHeld = errors.New("lease: held by another owner")
	// ErrNotHeld means a renew/release from a non-owner.
	ErrNotHeld = errors.New("lease: caller does not hold the lease")
)

// Elections is the slice of the consensus elector the manager needs.
type Elections interface {
	IsLeader() bool
	Term() uint64
}

// alwaysLeader is used for single-manager deployments and tests.
type alwaysLeader struct{}

func (alwaysLeader) IsLeader() bool { return true }
func (alwaysLeader) Term() uint64   { return 1 }

// AlwaysLeader returns an Elections that always claims leadership.
func AlwaysLeader() Elections { return alwaysLeader{} }

// Grant describes a held lease.
type Grant struct {
	Service string
	Owner   string
	Epoch   uint64
	Kind    Kind
	Expires time.Time
	// Term is the manager term that issued the grant.
	Term uint64
}

// Manager is the lease-manager replica on one management server. All
// replicas share the persistent table; only the consensus leader grants.
type Manager struct {
	clock     vclock.Clock
	elections Elections
	table     *store.Store
	ttl       time.Duration

	mu        sync.Mutex
	listeners []func(Grant) // push-lease expiry notifications
	sweepT    vclock.Timer
	running   bool
	gen       uint64 // bumped by Stop so in-flight sweep callbacks retire
}

// NewManager creates a manager replica. ttl is the default lease period
// (the grace period); table is the shared persistent store.
func NewManager(clock vclock.Clock, elections Elections, table *store.Store, ttl time.Duration) *Manager {
	if ttl <= 0 {
		ttl = time.Second
	}
	return &Manager{clock: clock, elections: elections, table: table, ttl: ttl}
}

// OnExpired registers a push-lease expiry listener. Listeners run on the
// sweep timer goroutine.
//
//wls:nolint unreached -- library-only: §3.4, TestPushLeaseExpiryNotifies
func (m *Manager) OnExpired(fn func(Grant)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = append(m.listeners, fn)
}

// Start begins the expiry sweep (push leases). Starting a running manager
// is a no-op.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return
	}
	m.running = true
	gen := m.gen
	m.mu.Unlock()
	m.scheduleSweep(gen)
}

// Stop halts the sweep. It is idempotent and safe to race an in-flight
// sweep callback: bumping the generation retires any callback that already
// fired but has not re-armed yet, so no sweeper can outlive Stop.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	m.gen++
	t := m.sweepT
	m.sweepT = nil
	m.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

func (m *Manager) scheduleSweep(gen uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running || gen != m.gen {
		return
	}
	m.sweepT = m.clock.AfterFunc(m.ttl/2, func() {
		m.mu.Lock()
		live := m.running && gen == m.gen
		m.mu.Unlock()
		if !live {
			return
		}
		m.sweepOnce()
		m.scheduleSweep(gen)
	})
}

// sweepOnce finds expired push leases, revokes them (bumping the epoch),
// and notifies listeners so the singleton framework re-places the service.
func (m *Manager) sweepOnce() {
	if !m.elections.IsLeader() {
		return
	}
	m.mu.Lock()
	listeners := append([]func(Grant){}, m.listeners...)
	m.mu.Unlock()
	now := m.clock.Now()
	for _, row := range m.table.Scan(Table, nil) {
		g, err := rowToGrant(row)
		if err != nil || g.Kind != Push || g.Owner == "" {
			continue
		}
		if now.After(g.Expires) {
			// Revoke: clear the owner so re-placement can grant anew. The
			// version check makes competing managers collide harmlessly.
			revoked := g
			revoked.Owner = ""
			revoked.Epoch = g.Epoch + 1
			revoked.Term = m.elections.Term()
			sess := m.table.Session("lease-sweep-" + row.Key + "-" + strconv.FormatUint(g.Epoch, 10))
			sess.UpdateVersioned(Table, row.Key, row.Version, grantToFields(revoked))
			if err := sess.Commit(""); err != nil {
				continue
			}
			for _, fn := range listeners {
				fn(g)
			}
		}
	}
}

// Acquire grants the lease for service to owner if it is free or expired.
// It returns the grant (with its fencing epoch).
func (m *Manager) Acquire(service, owner string, kind Kind) (Grant, error) {
	if !m.elections.IsLeader() {
		return Grant{}, ErrNotLeader
	}
	now := m.clock.Now()
	row, exists := m.table.Get(Table, service)
	var cur Grant
	if exists {
		var err error
		cur, err = rowToGrant(row)
		if err != nil {
			return Grant{}, err
		}
		if cur.Owner != "" && cur.Owner != owner && now.Before(cur.Expires) {
			return Grant{}, fmt.Errorf("%w: %s by %s", ErrHeld, service, cur.Owner)
		}
	}
	g := Grant{
		Service: service,
		Owner:   owner,
		Kind:    kind,
		Expires: now.Add(m.ttl),
		Term:    m.elections.Term(),
		Epoch:   cur.Epoch + 1,
	}
	if exists && cur.Owner == owner && now.Before(cur.Expires) {
		g.Epoch = cur.Epoch // re-acquire by the holder keeps the epoch
	}
	sess := m.table.Session(fmt.Sprintf("lease-acq-%s-%d", service, g.Epoch))
	if exists {
		sess.UpdateVersioned(Table, service, row.Version, grantToFields(g))
	} else {
		sess.Insert(Table, service, grantToFields(g))
	}
	if err := sess.Commit(""); err != nil {
		return Grant{}, fmt.Errorf("%w: lost the table race: %v", ErrHeld, err)
	}
	return g, nil
}

// Renew extends owner's lease. The epoch is unchanged.
func (m *Manager) Renew(service, owner string) (Grant, error) {
	if !m.elections.IsLeader() {
		return Grant{}, ErrNotLeader
	}
	row, exists := m.table.Get(Table, service)
	if !exists {
		return Grant{}, ErrNotHeld
	}
	g, err := rowToGrant(row)
	if err != nil {
		return Grant{}, err
	}
	if g.Owner != owner {
		return Grant{}, fmt.Errorf("%w: %s owned by %s", ErrNotHeld, service, g.Owner)
	}
	// A holder that let its lease expire must re-acquire (it may have been
	// re-granted in between — renewing would mask the epoch change).
	if m.clock.Now().After(g.Expires) {
		return Grant{}, fmt.Errorf("%w: lease expired", ErrNotHeld)
	}
	g.Expires = m.clock.Now().Add(m.ttl)
	g.Term = m.elections.Term()
	sess := m.table.Session(fmt.Sprintf("lease-renew-%s-%d-%d", service, g.Epoch, row.Version))
	sess.UpdateVersioned(Table, service, row.Version, grantToFields(g))
	if err := sess.Commit(""); err != nil {
		return Grant{}, fmt.Errorf("%w: %v", ErrNotHeld, err)
	}
	return g, nil
}

// Release voluntarily gives up the lease (clean shutdown or migration).
func (m *Manager) Release(service, owner string) error {
	if !m.elections.IsLeader() {
		return ErrNotLeader
	}
	row, exists := m.table.Get(Table, service)
	if !exists {
		return nil
	}
	g, err := rowToGrant(row)
	if err != nil {
		return err
	}
	if g.Owner != owner {
		return fmt.Errorf("%w: owned by %s", ErrNotHeld, g.Owner)
	}
	g.Owner = ""
	g.Epoch++
	sess := m.table.Session(fmt.Sprintf("lease-rel-%s-%d", service, g.Epoch))
	sess.UpdateVersioned(Table, service, row.Version, grantToFields(g))
	return sess.Commit("")
}

// OwnerOf reports the current holder of a service lease ("" if free or
// expired).
func (m *Manager) OwnerOf(service string) (owner string, epoch uint64) {
	row, exists := m.table.Get(Table, service)
	if !exists {
		return "", 0
	}
	g, err := rowToGrant(row)
	if err != nil {
		return "", 0
	}
	if g.Owner == "" || m.clock.Now().After(g.Expires) {
		return "", g.Epoch
	}
	return g.Owner, g.Epoch
}

// --- persistence mapping ----------------------------------------------------

func grantToFields(g Grant) map[string]string {
	return map[string]string{
		"owner":   g.Owner,
		"epoch":   strconv.FormatUint(g.Epoch, 10),
		"kind":    strconv.Itoa(int(g.Kind)),
		"expires": strconv.FormatInt(g.Expires.UnixNano(), 10),
		"term":    strconv.FormatUint(g.Term, 10),
	}
}

func rowToGrant(row store.Row) (Grant, error) {
	epoch, err1 := strconv.ParseUint(row.Fields["epoch"], 10, 64)
	kind, err2 := strconv.Atoi(row.Fields["kind"])
	expNs, err3 := strconv.ParseInt(row.Fields["expires"], 10, 64)
	term, err4 := strconv.ParseUint(row.Fields["term"], 10, 64)
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return Grant{}, fmt.Errorf("lease: corrupt lease row %q: %v", row.Key, err)
		}
	}
	return Grant{
		Service: row.Key,
		Owner:   row.Fields["owner"],
		Epoch:   epoch,
		Kind:    Kind(kind),
		Expires: time.Unix(0, expNs),
		Term:    term,
	}, nil
}

// ---------------------------------------------------------------------------
// RMI surface

// Service exposes the manager to lease holders on other servers. Followers
// answer ErrNotLeader as an application error, so clients never fail over
// blindly.
func (m *Manager) RMIService() *rmi.Service {
	appErr := func(err error) ([]byte, error) {
		return nil, &rmi.AppError{Msg: err.Error()}
	}
	encodeGrant := func(g Grant) []byte {
		e := wire.NewEncoder(64)
		e.String(g.Service)
		e.String(g.Owner)
		e.Uint64(g.Epoch)
		e.Byte(byte(g.Kind))
		e.Int64(g.Expires.UnixNano())
		e.Uint64(g.Term)
		return e.Bytes()
	}
	return &rmi.Service{
		Name:   ServiceName,
		System: true,
		Methods: map[string]rmi.MethodSpec{
			"acquire": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				service, owner, kind := d.String(), d.String(), Kind(d.Byte())
				if err := d.Err(); err != nil {
					return nil, err
				}
				g, err := m.Acquire(service, owner, kind)
				if err != nil {
					return appErr(err)
				}
				return encodeGrant(g), nil
			}},
			"renew": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				service, owner := d.String(), d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				g, err := m.Renew(service, owner)
				if err != nil {
					return appErr(err)
				}
				return encodeGrant(g), nil
			}},
			"release": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				service, owner := d.String(), d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				if err := m.Release(service, owner); err != nil {
					return appErr(err)
				}
				return nil, nil
			}},
			"owner": {Idempotent: true, Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				service := d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				owner, epoch := m.OwnerOf(service)
				e := wire.NewEncoder(32)
				e.String(owner)
				e.Uint64(epoch)
				return e.Bytes(), nil
			}},
		},
	}
}

// DecodeGrant parses the wire form returned by acquire/renew.
func DecodeGrant(b []byte) (Grant, error) {
	d := wire.NewDecoder(b)
	g := Grant{
		Service: d.String(),
		Owner:   d.String(),
		Epoch:   d.Uint64(),
		Kind:    Kind(d.Byte()),
	}
	g.Expires = time.Unix(0, d.Int64())
	g.Term = d.Uint64()
	return g, d.Err()
}
