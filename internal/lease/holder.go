package lease

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"wls/internal/rmi"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// Holder is the lease-owner side of the handshake: it acquires a lease,
// renews it at half-life, and reports loss. A service built on a Holder
// must arrange that all of its operations complete within the lease period
// — that is the grace-period contract that prevents split-brain (§3.4).
type Holder struct {
	clock    vclock.Clock
	node     rmi.Node
	managers []string // lease-manager addresses (leader discovered by probing)
	service  string
	owner    string
	kind     Kind
	// renewals runs renewOnce on its own goroutine, so a slow or frozen
	// network path never stalls the clock driving everyone else.
	renewals *vclock.Loop

	mu     sync.Mutex
	grant  Grant
	held   bool
	onLost func()
}

// NewHolder creates a holder for service, identifying as owner, speaking to
// the given lease-manager addresses through node.
func NewHolder(clock vclock.Clock, node rmi.Node, service, owner string, kind Kind, managers ...string) *Holder {
	h := &Holder{
		clock:    clock,
		node:     node,
		managers: managers,
		service:  service,
		owner:    owner,
		kind:     kind,
	}
	h.renewals = vclock.NewLoop(clock, h.renewOnce, true)
	return h
}

// OnLost registers the callback fired when the lease cannot be renewed.
// The service must stop operating immediately when it fires.
func (h *Holder) OnLost(fn func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onLost = fn
}

// Grant returns the current grant (zero if not held).
func (h *Holder) Grant() Grant {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.grant
}

// Held reports whether the lease is currently held and unexpired.
func (h *Holder) Held() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held && h.clock.Now().Before(h.grant.Expires)
}

// Epoch returns the fencing epoch of the current grant.
func (h *Holder) Epoch() uint64 { return h.Grant().Epoch }

// Acquire obtains the lease (probing managers for the leader) and starts
// auto-renewal.
func (h *Holder) Acquire(ctx context.Context) error {
	e := wire.NewEncoder(64)
	e.String(h.service)
	e.String(h.owner)
	e.Byte(byte(h.kind))
	body, err := h.callLeader(ctx, "acquire", e.Bytes())
	if err != nil {
		return err
	}
	g, err := DecodeGrant(body)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.grant = g
	h.held = true
	h.mu.Unlock()
	h.renewals.Start(h.halfLife(g))
	return nil
}

// Release gives the lease up voluntarily and stops renewal.
func (h *Holder) Release(ctx context.Context) error {
	h.renewals.Stop()
	h.mu.Lock()
	wasHeld := h.held
	h.held = false
	h.mu.Unlock()
	if !wasHeld {
		return nil
	}
	e := wire.NewEncoder(64)
	e.String(h.service)
	e.String(h.owner)
	_, err := h.callLeader(ctx, "release", e.Bytes())
	return err
}

// Stop halts renewal without releasing (used when the process is dying; the
// lease will expire on its own).
func (h *Holder) Stop() { h.renewals.Stop() }

// halfLife is how long from now g is renewed.
func (h *Holder) halfLife(g Grant) time.Duration {
	return max(g.Expires.Sub(h.clock.Now())/2, time.Millisecond)
}

// renewOnce renews the lease and returns when to renew next. A renewal
// that failed retries shortly while the lease lasts, since a transient
// manager failover must not kill a healthy owner; once it has expired, or
// ownership moved, the lease is lost. A renewal whose epoch Release or
// Stop retired while its RPC was out changes nothing: the grant and the
// held flag may already be the next Acquire's.
func (h *Holder) renewOnce(epoch uint64) time.Duration {
	h.mu.Lock()
	deadline := h.grant.Expires
	h.mu.Unlock()

	e := wire.NewEncoder(64)
	e.String(h.service)
	e.String(h.owner)
	// The RPC timeout is real time (it bounds the network exchange), while
	// the lease deadline lives on the holder's clock — do not mix them.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	body, err := h.callLeader(ctx, "renew", e.Bytes())
	cancel()
	var g Grant
	if err == nil {
		g, err = DecodeGrant(body)
	}
	h.mu.Lock()
	if !h.renewals.Current(epoch) {
		h.mu.Unlock()
		return -1
	}
	switch {
	case err == nil:
		h.grant = g
		h.mu.Unlock()
		return h.halfLife(g)
	case !errors.Is(err, ErrNotHeldApp) && !h.clock.Now().After(deadline):
		h.mu.Unlock()
		return deadline.Sub(h.clock.Now())/4 + time.Millisecond
	}
	// Stop, not just end the chain: an Acquire racing this loss must find
	// the loop stopped, or its Start would do nothing.
	h.held = false
	h.renewals.Stop()
	fn := h.onLost
	h.mu.Unlock()
	if fn != nil {
		fn()
	}
	return -1
}

// ErrNotHeldApp matches the application-error text a manager returns when
// the caller no longer holds the lease.
var ErrNotHeldApp = errors.New("lease: ownership lost")

// callLeader invokes the lease service, probing every manager address and
// following ErrNotLeader rejections.
func (h *Holder) callLeader(ctx context.Context, method string, args []byte) ([]byte, error) {
	var lastErr error
	for _, addr := range h.managers {
		stub := rmi.NewStub(ServiceName, h.node, rmi.StaticView(addr))
		res, err := stub.Invoke(ctx, method, args)
		if err == nil {
			return res.Body, nil
		}
		lastErr = err
		if rmi.IsAppError(err) {
			msg := err.Error()
			switch {
			case strings.Contains(msg, "not the lease manager leader"):
				continue // probe the next manager
			case strings.Contains(msg, "does not hold"), strings.Contains(msg, "expired"):
				return nil, ErrNotHeldApp
			default:
				return nil, err
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("lease: no manager addresses configured")
	}
	return nil, lastErr
}

// QueryOwner asks any reachable manager who currently owns a service lease.
// Unlike grants, ownership queries are served by followers too (their view
// of the shared table is as fresh as the leader's).
func QueryOwner(ctx context.Context, node rmi.Node, service string, managers ...string) (owner string, epoch uint64, err error) {
	e := wire.NewEncoder(32)
	e.String(service)
	var lastErr error
	for _, addr := range managers {
		stub := rmi.NewStub(ServiceName, node, rmi.StaticView(addr))
		res, ierr := stub.Invoke(ctx, "owner", e.Bytes())
		if ierr != nil {
			lastErr = ierr
			continue
		}
		d := wire.NewDecoder(res.Body)
		owner, epoch = d.String(), d.Uint64()
		return owner, epoch, d.Err()
	}
	if lastErr == nil {
		lastErr = errors.New("lease: no manager addresses configured")
	}
	return "", 0, lastErr
}
