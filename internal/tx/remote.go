package tx

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wls/internal/rmi"
	"wls/internal/wire"
)

// ServiceName is the RMI service every server deploys to participate in
// distributed transactions coordinated elsewhere — the interposed
// transaction role that §2.3 attributes to server gateways.
const ServiceName = "wls.tx"

// Branch is the participant side of a distributed transaction on one
// server: the set of local resources enlisted under a foreign coordinator's
// transaction id.
type Branch struct {
	id string

	mu        sync.Mutex
	resources []enlisted
}

// Enlist adds a local resource to the branch (deduplicated by name).
func (b *Branch) Enlist(name string, r Resource) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.resources {
		if e.name == name {
			return
		}
	}
	b.resources = append(b.resources, enlisted{name, r})
}

func (b *Branch) snapshot() []enlisted {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]enlisted{}, b.resources...)
}

// Prepare votes for the whole branch: every local resource must vote yes.
func (b *Branch) Prepare(txID string) error {
	for _, e := range b.snapshot() {
		if err := e.r.Prepare(txID); err != nil {
			return fmt.Errorf("branch resource %s: %w", e.name, err)
		}
	}
	return nil
}

// Commit commits every local resource.
func (b *Branch) Commit(txID string) error {
	var firstErr error
	for _, e := range b.snapshot() {
		if err := e.r.Commit(txID); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Rollback rolls back every local resource.
func (b *Branch) Rollback(txID string) error {
	var firstErr error
	for _, e := range b.snapshot() {
		if err := e.r.Rollback(txID); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Branch returns (creating on first use) the participant branch for a
// foreign transaction id. Server-side request handlers call this when an
// inbound invocation carries a TxID that this server does not coordinate.
func (m *Manager) Branch(txID string) *Branch {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.branches == nil {
		m.branches = make(map[string]*Branch)
	}
	b, ok := m.branches[txID]
	if !ok {
		b = &Branch{id: txID}
		m.branches[txID] = b
	}
	return b
}

func (m *Manager) removeBranch(txID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.branches, txID)
}

// Service exposes this manager's branches over RMI so remote coordinators
// can drive 2PC against this server.
func (m *Manager) Service() *rmi.Service {
	txIDOf := func(c *rmi.Call) string {
		d := wire.NewDecoder(c.Args)
		return d.String()
	}
	return &rmi.Service{
		Name:   ServiceName,
		System: true,
		Methods: map[string]rmi.MethodSpec{
			"prepare": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				id := txIDOf(c)
				if err := m.Branch(id).Prepare(id); err != nil {
					return nil, &rmi.AppError{Msg: err.Error()} // no vote
				}
				return nil, nil
			}},
			// Commit and rollback are idempotent by the Resource contract,
			// so recovery may safely re-drive them.
			"commit": {Idempotent: true, Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				id := txIDOf(c)
				err := m.Branch(id).Commit(id)
				m.removeBranch(id)
				return nil, err
			}},
			"rollback": {Idempotent: true, Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				id := txIDOf(c)
				err := m.Branch(id).Rollback(id)
				m.removeBranch(id)
				return nil, err
			}},
		},
	}
}

// RemoteBranch is the coordinator-side Resource representing a branch on
// another server.
type RemoteBranch struct {
	stub *rmi.Stub
	// Timeout bounds each 2PC message exchange.
	Timeout time.Duration
}

// NewRemoteBranch returns a Resource that drives the wls.tx service on the
// participant at addr through the given node.
func NewRemoteBranch(node rmi.Node, addr string) *RemoteBranch {
	return &RemoteBranch{
		stub:    rmi.NewStub(ServiceName, node, rmi.StaticView(addr)),
		Timeout: 5 * time.Second,
	}
}

func (r *RemoteBranch) call(ctx context.Context, method, txID string) error {
	e := wire.NewEncoder(32)
	e.String(txID)
	ctx, cancel := context.WithTimeout(ctx, r.Timeout)
	defer cancel()
	_, err := r.stub.Invoke(ctx, method, e.Bytes())
	return err
}

// Prepare implements Resource.
func (r *RemoteBranch) Prepare(txID string) error {
	return r.call(context.Background(), "prepare", txID)
}

// Commit implements Resource.
func (r *RemoteBranch) Commit(txID string) error {
	return r.call(context.Background(), "commit", txID)
}

// Rollback implements Resource.
func (r *RemoteBranch) Rollback(txID string) error {
	return r.call(context.Background(), "rollback", txID)
}

// PrepareCtx, CommitCtx, and RollbackCtx implement ContextResource: a
// traced coordinator hands each 2PC message its phase-span context, so
// the message is recorded as an RMI hop onto the participant.
func (r *RemoteBranch) PrepareCtx(ctx context.Context, txID string) error {
	return r.call(ctx, "prepare", txID)
}

// CommitCtx implements ContextResource.
func (r *RemoteBranch) CommitCtx(ctx context.Context, txID string) error {
	return r.call(ctx, "commit", txID)
}

// RollbackCtx implements ContextResource.
func (r *RemoteBranch) RollbackCtx(ctx context.Context, txID string) error {
	return r.call(ctx, "rollback", txID)
}
