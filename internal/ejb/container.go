// Package ejb implements the component model of §3.1–§3.3 in terms of the
// four clustered-service types:
//
//   - Stateless session beans (§3.1): pooled instances behind a clustered
//     RMI service; any instance on any server is as good as any other, so
//     scalability is "simply deploying multiple instances in a cluster".
//   - Stateful session beans (§3.2): conversational services, hardwired to
//     the server that created them, made available through the same
//     primary/secondary replication as HTTP sessions — each conversation is
//     a record of a servlet session manager — with update deltas shipped at
//     transaction boundaries (the Tandem process-pairs scheme), including
//     the paper's documented anomaly that non-transactional conversational
//     state can roll back to the last boundary on failover.
//   - Entity beans (§3.3): cached persistent components over the backend
//     store with the full consistency-option matrix: time-to-live,
//     flush-on-update via the multicast bus, optimistic concurrency with
//     version or data fields enforced by an extra WHERE clause, and
//     pessimistic database locks.
package ejb

import (
	"context"
	"sync"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/store"
	"wls/internal/trace"
	"wls/internal/vclock"
)

// Container is one server's EJB runtime.
type Container struct {
	registry *rmi.Registry
	member   *cluster.Member
	// serverName caches the (immutable) hosting server's name.
	serverName string
	clock      vclock.Clock
	db         *store.Store
	bus        gossip.Bus
	reg        *metrics.Registry

	mu       sync.Mutex
	stateful map[string]*statefulStore
}

// NewContainer wires a container to its server's registry, backend
// database and cluster bus.
func NewContainer(registry *rmi.Registry, db *store.Store, bus gossip.Bus) *Container {
	return &Container{
		registry:   registry,
		member:     registry.Member(),
		serverName: registry.Member().Name(),
		clock:      registry.Member().Clock(),
		db:         db,
		bus:        bus,
		reg:        registry.Metrics(),
		stateful:   make(map[string]*statefulStore),
	}
}

// ServerName returns the hosting server's name.
func (c *Container) ServerName() string { return c.serverName }

// Close stops its stateful beans' session managers, so their rings stop
// following the membership, which outlives a container its server restarts.
func (c *Container) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ss := range c.stateful {
		ss.sessions.Stop()
	}
}

// ---------------------------------------------------------------------------
// Stateless session beans (§3.1)

// StatelessMethod is one business method of a stateless bean. inst is the
// pooled bean instance.
type StatelessMethod func(ctx context.Context, inst any, call *rmi.Call) ([]byte, error)

// StatelessSpec declares a stateless session bean.
type StatelessSpec struct {
	// Name is the bean's global JNDI-ish name (the RMI service name).
	Name string
	// New creates a pooled instance.
	New func() any
	// Methods maps method names to implementations.
	Methods map[string]StatelessMethod
	// PoolSize bounds concurrent instances (default 16). Calls beyond the
	// pool block for an instance, modelling execute-queue admission.
	PoolSize int
}

// statelessPool is a bounded pool of bean instances.
type statelessPool struct {
	free chan any
}

func newStatelessPool(size int, factory func() any) *statelessPool {
	if size <= 0 {
		size = 16
	}
	p := &statelessPool{free: make(chan any, size)}
	for i := 0; i < size; i++ {
		var inst any
		if factory != nil {
			inst = factory()
		}
		p.free <- inst
	}
	return p
}

func (p *statelessPool) checkout(ctx context.Context) (any, error) {
	select {
	case inst := <-p.free:
		return inst, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *statelessPool) checkin(inst any) { p.free <- inst }

// statelessHandler is the deploy-time-resolved invoke root for one
// stateless method: the span name is precomputed and the metrics counter
// resolved once, so the per-call path does neither string concatenation
// nor a counter-name map lookup.
type statelessHandler struct {
	pool     *statelessPool
	impl     StatelessMethod
	spanName string
	calls    *metrics.Counter
}

func (sh *statelessHandler) invoke(ctx context.Context, call *rmi.Call) ([]byte, error) {
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		ctx, span = parent.NewChild(ctx, sh.spanName, trace.KindInternal)
		defer span.Finish()
	}
	inst, err := sh.pool.checkout(ctx)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	defer sh.pool.checkin(inst)
	sh.calls.Inc()
	body, err := sh.impl(ctx, inst, call)
	span.SetError(err)
	return body, err
}

// DeployStateless deploys and advertises a stateless session bean. Returns
// the clustered service name to create stubs against.
func (c *Container) DeployStateless(spec StatelessSpec) string {
	pool := newStatelessPool(spec.PoolSize, spec.New)
	calls := c.reg.Counter("ejb.stateless.calls")
	methods := make(map[string]rmi.MethodSpec, len(spec.Methods))
	for name, impl := range spec.Methods {
		sh := &statelessHandler{
			pool:     pool,
			impl:     impl,
			spanName: "ejb " + spec.Name + "." + name,
			calls:    calls,
		}
		methods[name] = rmi.MethodSpec{Handler: sh.invoke}
	}
	c.registry.Register(&rmi.Service{Name: spec.Name, Methods: methods})
	return spec.Name
}

// StatelessStub builds an internal-client stub for a stateless bean with
// the default policy (round robin + local preference + tx affinity).
func (c *Container) StatelessStub(name string, opts ...rmi.StubOption) *rmi.Stub {
	return rmi.NewStub(name, c.registry.Node(), rmi.MemberView{Member: c.member}, opts...)
}
