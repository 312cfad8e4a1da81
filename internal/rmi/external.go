package rmi

import (
	"context"
	"errors"
	"sync"
	"time"

	"wls/internal/cluster"
	"wls/internal/vclock"
)

// ViewServiceName is the built-in service every registry deploys so that
// external tightly-coupled clients can "occasionally contact a member of
// the cluster to obtain load-balancing and failover information and cache
// it locally" (§2.2).
const ViewServiceName = "wls.cluster"

// viewMethod returns the advertising member's current live view.
const viewMethod = "view"

// registerBuiltins deploys the cluster-view service.
func (r *Registry) registerBuiltins() {
	r.Register(&Service{
		Name:   ViewServiceName,
		System: true,
		Methods: map[string]MethodSpec{
			viewMethod: {
				Handler: func(ctx context.Context, call *Call) ([]byte, error) {
					return cluster.EncodeMembers(r.member.Alive()), nil
				},
			},
		},
	})
}

// ExternalClient is a tightly-coupled client running outside the cluster
// (§2.2). It bootstraps its view of the cluster from one or more known
// addresses, caches it, and refreshes it periodically on its own clock —
// it never participates in cluster heartbeating.
type ExternalClient struct {
	node      Node
	bootstrap []string
	interval  time.Duration
	refreshes *vclock.Loop // Refresh every interval

	mu      sync.Mutex
	members []cluster.MemberInfo
}

// ErrNoBootstrap means no bootstrap address answered the view query.
var ErrNoBootstrap = errors.New("rmi: no bootstrap server reachable")

// NewExternalClient creates a client that refreshes its cached cluster view
// every interval from the bootstrap addresses. Call Refresh once (or Start)
// before creating stubs.
func NewExternalClient(node Node, clock vclock.Clock, interval time.Duration, bootstrap ...string) *ExternalClient {
	c := &ExternalClient{node: node, bootstrap: bootstrap, interval: interval}
	c.refreshes = vclock.NewLoop(clock, c.refresh, false)
	return c
}

// Refresh fetches the cluster view now, trying each bootstrap address and
// then each previously known member until one answers.
func (c *ExternalClient) Refresh(ctx context.Context) error {
	tried := make(map[string]bool)
	attempt := func(addr string) bool {
		if addr == "" || tried[addr] {
			return false
		}
		tried[addr] = true
		stub := NewStub(ViewServiceName, c.node, StaticView(addr))
		res, err := stub.Invoke(ctx, viewMethod, nil)
		if err != nil {
			return false
		}
		ms, err := cluster.DecodeMembers(res.Body)
		if err != nil {
			return false
		}
		c.mu.Lock()
		c.members = ms
		c.mu.Unlock()
		return true
	}
	for _, addr := range c.bootstrap {
		if attempt(addr) {
			return nil
		}
	}
	c.mu.Lock()
	known := append([]cluster.MemberInfo(nil), c.members...)
	c.mu.Unlock()
	for _, m := range known {
		if attempt(m.Addr) {
			return nil
		}
	}
	return ErrNoBootstrap
}

// Start begins periodic background refresh.
//
//wls:nolint unreached -- library-only: §2.2, TestExternalClientPeriodicRefresh
func (c *ExternalClient) Start() { c.refreshes.Start(c.interval) }

func (c *ExternalClient) refresh(uint64) time.Duration {
	ctx, cancel := context.WithTimeout(context.Background(), c.interval)
	_ = c.Refresh(ctx)
	cancel()
	return c.interval
}

// Stop halts background refresh.
//
//wls:nolint unreached -- library-only: §2.2, TestExternalClientPeriodicRefresh
func (c *ExternalClient) Stop() { c.refreshes.Stop() }

// Candidates implements View against the cached copy.
func (c *ExternalClient) Candidates(service string) []cluster.MemberInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []cluster.MemberInfo
	for _, m := range c.members {
		if m.OffersService(service) {
			out = append(out, m)
		}
	}
	return out
}

// LocalName implements View; external clients have no local server.
func (c *ExternalClient) LocalName() string { return "" }

// Stub creates a stub for service backed by this client's cached view.
//
//wls:nolint unreached -- library-only: §2.2, TestExternalClientBootstrapAndInvoke
func (c *ExternalClient) Stub(service string, opts ...StubOption) *Stub {
	return NewStub(service, c.node, c, opts...)
}

// StaticView returns a View listing fixed addresses that are assumed to
// offer every service. It is used to bootstrap before any live view is
// known and to address a specific server directly (e.g. a transaction
// branch participant).
func StaticView(addrs ...string) View { return makeStaticView("", addrs) }

// NamedStaticView returns a single-member View with an explicit member
// name. Client-side resilience keys breakers by candidate name, and a
// Result names its server by it, so callers that dial a fixed address on
// a known member (a session's replication to its secondary, breaker
// probes) use this to share breaker state with stubs built from live
// views; plain StaticView candidates are named by their address.
func NamedStaticView(name, addr string) View {
	return makeStaticView(name, []string{addr})
}

// staticView lets the bootstrap query target a fixed address before any
// view is known. Its candidate list is fixed, so it is built once at
// construction and shared read-only with every Candidates caller —
// consumers of View.Candidates must not reorder results in place (the
// load-balancing policies all copy before permuting).
type staticView struct {
	cands []cluster.MemberInfo
}

func makeStaticView(name string, addrs []string) staticView {
	out := make([]cluster.MemberInfo, 0, len(addrs))
	for _, a := range addrs {
		n := a
		if name != "" {
			n = name
		}
		out = append(out, cluster.MemberInfo{Name: n, Addr: a, Services: []string{ViewServiceName}})
	}
	return staticView{cands: out}
}

func (v staticView) Candidates(string) []cluster.MemberInfo { return v.cands }

func (v staticView) LocalName() string { return "" }
