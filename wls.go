// Package wls is a Go reproduction of the distributed computing
// architecture of BEA WebLogic Server as described in Dean Jacobs,
// "Distributed Computing with BEA WebLogic Server", CIDR 2003.
//
// The package is the public façade over the substrates in internal/: it
// boots a cluster of application servers — either on an in-process
// simulated network with a virtual clock (deterministic, used by the tests,
// benchmarks and examples) or on real TCP sockets — and exposes each
// server's containers:
//
//   - EJB: stateless/stateful/entity beans (§3.1–3.3)
//   - Web: the servlet engine with replicated sessions and JSP caching
//   - JMS: queues, transactional messaging, store-and-forward
//   - WS: WSDL-style conversations with callbacks (§4)
//   - Tx: the distributed transaction manager
//   - Files: the middle-tier persistence layer (§5.1)
//
// plus the cluster-level machinery: lease-based singletons, the
// presentation-tier routers of Figures 2–3, external tightly-coupled
// clients, and warehouse-style ETL (§5.2).
package wls

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"wls/internal/cluster"
	"wls/internal/core"
	"wls/internal/ejb"
	"wls/internal/gossip"
	"wls/internal/jms"
	"wls/internal/kv"
	"wls/internal/lease"
	"wls/internal/metrics"
	"wls/internal/netsim"
	"wls/internal/partition"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/singleton"
	"wls/internal/store"
	"wls/internal/trace"
	"wls/internal/tuple"
	"wls/internal/tx"
	"wls/internal/vclock"
	"wls/internal/webtier"
	"wls/internal/wsdl"
)

// Options configures a cluster.
type Options struct {
	// Servers is the cluster size (default 3).
	Servers int
	// RealClock uses the wall clock instead of a virtual one. Virtual is
	// the default: deterministic, and time only advances via Advance.
	RealClock bool
	// DataDir, when set, gives every server a middle-tier store under
	// it (enabling durable JMS, durable conversations, tx logs, local
	// config replicas).
	DataDir string
	// Sessions selects the servlet session-state option.
	Sessions servlet.SessionMode
	// ServersPerMachine controls machine placement (default 1).
	//
	//wls:nolint unreached -- library-only: §3.2, TestOneMachineStillReplicates
	ServersPerMachine int
	// ReplicationGroups assigns each server a §3.2 replication group,
	// round robin.
	//
	//wls:nolint unreached -- library-only: §3.2, TestRingPlacementHonoursGroups
	ReplicationGroups []string
	// PreferredSecondaryGroups are the groups §3.2 places secondaries in
	// first.
	//
	//wls:nolint unreached -- library-only: §3.2, TestRingPlacementHonoursGroups
	PreferredSecondaryGroups []string
	// WithAdmin adds a dedicated admin server hosting the lease manager
	// (required for singleton services).
	WithAdmin bool
	// LeaseTTL is the singleton grace period (default 1s).
	LeaseTTL time.Duration
	// Seed drives all simulation randomness.
	Seed int64
	// TraceSample enables distributed tracing: every server (and every
	// router built from the cluster) gets a tracer exporting into one
	// shared ring of traceRingSpans spans. 0 disables tracing entirely (the default — no tracers
	// are created, keeping the hot paths allocation-free); 1 samples every
	// root; a fraction samples deterministically (counter-based, no RNG).
	TraceSample float64
	// Admission, when set, gives every server an execute queue (§2.3) that
	// admits all non-system RMI requests; a full queue refuses requests
	// with a wire-level BUSY response that stubs treat as side-effect-free
	// and fail over from.
	Admission *rmi.QueueConfig
	// Resilience gives every server a shared client-side
	// overload-protection layer — retry token bucket, capped jittered
	// backoff, per-server circuit breakers — which Server.Stub wires into
	// every stub it creates (routers built from the cluster get their own).
	Resilience bool
}

// traceRingSpans is the capacity of a traced cluster's shared span ring.
const traceRingSpans = 4096

// Cluster is a running group of application servers plus the shared
// persistence tier.
type Cluster struct {
	opts Options
	fix  *fixture

	// DB is the shared backend database (the persistence tier).
	DB *store.Store
	// Servers are the managed servers (excluding the admin server).
	Servers []*Server
	// Admin is the admin server (nil unless WithAdmin).
	Admin *Server
	// Leases is the lease manager (nil unless WithAdmin).
	Leases *lease.Manager

	traces  *trace.Ring // shared span ring (nil unless TraceSample > 0)
	nextIdx int         // next free address index (AddServer scale-out)
}

// Server is one application server.
type Server struct {
	Name string

	cluster  *Cluster
	endpoint *netsim.Endpoint
	member   *cluster.Member
	registry *rmi.Registry
	reg      *metrics.Registry
	tracer   *trace.Tracer    // nil unless Options.TraceSample > 0
	queue    *rmi.Gate        // nil unless Options.Admission
	res      *rmi.Resilience  // nil unless Options.Resilience
	parts    *partition.Views // nil on the admin server

	// Tx is the server's transaction manager.
	Tx *tx.Manager
	// EJB is the server's EJB container.
	EJB *ejb.Container
	// Web is the server's servlet engine (nil on the admin server, which
	// holds no application sessions).
	Web *servlet.Engine
	// JMS is the server's message broker.
	JMS *jms.Broker
	// WS is the server's Web Services port.
	WS *wsdl.Port
	// Files is the server's middle-tier store (nil without DataDir): JMS
	// messages, durable conversations and config replicas, each in its own
	// tuple space of one WAL file.
	Files *tuple.Store
	// Health is the server's health monitor and lifecycle (§3.4), exposed
	// cluster-wide as the wls.health service.
	Health *core.HealthMonitor
}

// fixture is the simulation plumbing (mirrors internal/simtest, duplicated
// here so the public package does not expose test helpers).
type fixture struct {
	clock  vclock.Clock
	vclk   *vclock.Virtual
	net    *netsim.Network
	bus    *gossip.InMemory
	cfg    cluster.Config
	admins []string
}

// New boots a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Servers == 0 {
		opts.Servers = 3
	}
	if opts.ServersPerMachine == 0 {
		opts.ServersPerMachine = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = time.Second
	}

	var clk vclock.Clock
	var vclk *vclock.Virtual
	if opts.RealClock {
		clk = vclock.System
	} else {
		vclk = vclock.NewVirtualAtZero()
		clk = vclk
	}
	fix := &fixture{
		clock: clk,
		vclk:  vclk,
		net:   netsim.New(clk),
		bus:   gossip.NewInMemory(clk, opts.Seed),
		cfg: cluster.Config{
			Name:              "cluster",
			HeartbeatInterval: 100 * time.Millisecond,
			FailureTimeout:    350 * time.Millisecond,
		},
	}
	c := &Cluster{
		opts: opts,
		fix:  fix,
		DB:   store.New("backend", clk),
	}
	if opts.TraceSample > 0 {
		c.traces = trace.NewRing(traceRingSpans)
	}

	total := opts.Servers
	if opts.WithAdmin {
		total++
	}
	for i := 0; i < total; i++ {
		isAdmin := opts.WithAdmin && i == opts.Servers
		name := fmt.Sprintf("server-%d", i+1)
		if isAdmin {
			name = "admin"
		}
		s, err := c.newServer(i, name)
		if err != nil {
			c.Stop()
			return nil, err
		}
		if isAdmin {
			c.Admin = s
			fix.admins = []string{s.endpoint.Addr()}
		} else {
			c.Servers = append(c.Servers, s)
		}
	}

	c.nextIdx = total

	if opts.WithAdmin {
		leaseTable := store.New("leasedb", clk)
		c.Leases = lease.NewManager(clk, lease.AlwaysLeader(), leaseTable, opts.LeaseTTL)
		c.Admin.registry.Register(c.Leases.RMIService())
		c.Leases.Start()
	}
	c.AwaitConverged()
	return c, nil
}

func (c *Cluster) newServer(i int, name string) (*Server, error) {
	fix := c.fix
	addr := fmt.Sprintf("10.0.0.%d:7001", i+1)
	group := ""
	if len(c.opts.ReplicationGroups) > 0 {
		group = c.opts.ReplicationGroups[i%len(c.opts.ReplicationGroups)]
	}
	cfg := fix.cfg
	if fix.vclk != nil {
		// Record ids follow the seed on a virtual clock, so a seeded run
		// replays; on the wall clock they come from crypto/rand.
		cfg.IDSeed = seedFor(c.opts.Seed, name)
	}
	s := &Server{
		Name:     name,
		cluster:  c,
		endpoint: fix.net.Endpoint(addr),
		member: cluster.NewMember(cfg, fix.clock, fix.bus, cluster.MemberInfo{
			Name:                     name,
			Addr:                     addr,
			Machine:                  fmt.Sprintf("machine-%d", i/c.opts.ServersPerMachine+1),
			ReplicationGroup:         group,
			PreferredSecondaryGroups: c.opts.PreferredSecondaryGroups,
		}),
	}
	if err := c.assemble(s); err != nil {
		return nil, err
	}
	return s, nil
}

// assemble builds a server on its endpoint and member — the one
// construction path, for a new server and for a restarted one: a fresh
// metrics registry with the server's store opened on it, then an RMI
// registry, the member started, and the containers, each registered and
// advertised. A store that does not open fails it before it touches s.
// What survives a reboot is reused: the partition views (they follow the
// member; one ring per managed server, seeded from Options.Seed) and the
// tracer.
func (c *Cluster) assemble(s *Server) error {
	fix := c.fix
	reg := metrics.NewRegistry()
	if c.opts.DataDir != "" {
		if err := os.MkdirAll(c.opts.DataDir, 0o755); err != nil {
			return err
		}
		// Tuple spaces over a WAL that fsyncs every commit — a persistent
		// message is on disk before Send returns — and counts into the
		// server's registry.
		w, err := kv.OpenWAL(filepath.Join(c.opts.DataDir, s.Name+".store"), kv.Options{SyncEveryCommit: true, Metrics: reg})
		if err != nil {
			return fmt.Errorf("wls: store for %s: %w", s.Name, err)
		}
		if s.Files, err = tuple.New(w); err != nil {
			return fmt.Errorf("wls: store for %s: %w", s.Name, errors.Join(err, w.Close()))
		}
	}
	s.reg = reg
	s.registry = rmi.NewRegistry(s.endpoint, s.member, s.reg)
	s.member.Start()
	s.Tx = tx.NewManager(s.Name, fix.clock, nil, s.reg)
	s.EJB = ejb.NewContainer(s.registry, c.DB, fix.bus)
	// Application sessions live on managed servers only: the admin server
	// deploys no servlet engine, so it never offers wls.http and no router
	// or secondary placement can choose it.
	if s.Name != "admin" {
		s.Web = servlet.NewEngine(s.registry, servlet.Config{Sessions: c.opts.Sessions, DB: c.DB})
		if s.parts == nil {
			// Attach after the servlet engine registers, so the ring's very
			// first view already contains this server.
			s.parts = partition.NewViews(partition.Config{Seed: c.opts.Seed})
			partition.Attach(s.parts, s.member, servlet.ServiceName)
		}
		s.Web.SetPartitions(s.parts)
	}
	s.JMS = jms.NewBroker(s.Name, s.Files, s.reg)
	s.WS = wsdl.NewPort(s.registry, s.Files)
	s.Health = core.NewHealthMonitor()
	s.Health.SetLifecycle(core.LifecycleRunning)
	// A handler panic leaves state nothing vouches for: the server stays
	// up to answer, and reports itself failed.
	panics := s.reg.Counter("rmi.handler_panics")
	s.Health.RegisterCheck("rmi", func() core.HealthState {
		if panics.Value() > 0 {
			return core.HealthFailed
		}
		return core.HealthOK
	})
	s.registry.Register(s.JMS.RMIService())
	s.registry.Register(s.Tx.Service())
	s.registry.Register(s.Health.Service())
	if s.tracer == nil {
		s.tracer = c.newTracer(s.Name)
	}
	if s.tracer != nil {
		s.registry.SetTracer(s.tracer)
	}
	if c.opts.Admission != nil {
		s.queue = rmi.NewGate(*c.opts.Admission, fix.clock, s.reg)
		s.registry.SetGate(s.queue)
	}
	if c.opts.Resilience {
		// A rebooted server has no memory of old breaker state or banked
		// retry tokens; its jitter seed follows its name, so timelines stay
		// reproducible.
		s.res = rmi.NewResilience(seedFor(c.opts.Seed, s.Name), fix.clock, s.reg)
	}
	return nil
}

// seedFor de-correlates backoff jitter and record ids across callers
// deterministically: each server/router mixes its name into the base seed,
// so concurrent retry waves de-synchronize and servers draw distinct ids,
// while every (cluster seed, name) pair stays reproducible.
func seedFor(base int64, name string) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return base ^ int64(h)
}

// newTracer builds a tracer exporting into the cluster's shared ring, or
// nil when tracing is disabled.
func (c *Cluster) newTracer(name string) *trace.Tracer {
	if c.traces == nil {
		return nil
	}
	var sampler trace.Sampler
	if c.opts.TraceSample >= 1 {
		sampler = trace.Always()
	} else {
		sampler = trace.Ratio(c.opts.TraceSample)
	}
	return trace.New(name, c.fix.clock, trace.Options{Sampler: sampler, Exporter: c.traces})
}

// --- Server accessors -------------------------------------------------------

// Addr returns the server's transport address.
func (s *Server) Addr() string { return s.endpoint.Addr() }

// Member returns the server's cluster membership.
func (s *Server) Member() *cluster.Member { return s.member }

// Registry returns the server's RMI registry.
func (s *Server) Registry() *rmi.Registry { return s.registry }

// Node returns the server's transport node.
func (s *Server) Node() rmi.Node { return s.endpoint }

// Metrics returns the server's metric registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Tracer returns the server's tracer (nil unless Options.TraceSample > 0).
// Use it to start roots for internal-client work on this server.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Queue returns the server's execute queue (nil unless Options.Admission).
func (s *Server) Queue() *rmi.Gate { return s.queue }

// Resilience returns the server's shared client-side resilience layer (nil
// unless Options.Resilience).
func (s *Server) Resilience() *rmi.Resilience { return s.res }

// Stub creates an internal-client stub for a clustered service. With
// Options.Resilience set, the stub shares the server's retry budget and
// breakers; explicit options may still override.
func (s *Server) Stub(service string, opts ...rmi.StubOption) *rmi.Stub {
	if s.res != nil {
		opts = append([]rmi.StubOption{rmi.WithResilience(s.res)}, opts...)
	}
	return rmi.NewStub(service, s.endpoint, rmi.MemberView{Member: s.member}, opts...)
}

// SingletonHost creates this server's candidacy for a continuous singleton
// service (requires Options.WithAdmin).
func (s *Server) SingletonHost(cfg singleton.Config, impl singleton.Activatable) *singleton.Host {
	return singleton.NewHost(cfg, s.member, s.registry, impl, s.cluster.fix.admins...)
}

// --- Cluster operations --------------------------------------------------------

// Clock returns the cluster clock.
func (c *Cluster) Clock() vclock.Clock { return c.fix.clock }

// VirtualClock returns the virtual clock (nil with RealClock).
func (c *Cluster) VirtualClock() *vclock.Virtual { return c.fix.vclk }

// Bus returns the announcement bus.
func (c *Cluster) Bus() *gossip.InMemory { return c.fix.bus }

// Net returns the simulated network fabric for failure injection.
func (c *Cluster) Net() *netsim.Network { return c.fix.net }

// Server returns the named server (including "admin"), or nil.
func (c *Cluster) Server(name string) *Server {
	if c.Admin != nil && c.Admin.Name == name {
		return c.Admin
	}
	for _, s := range c.Servers {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Settle advances through n heartbeat rounds so membership converges.
// Under the virtual clock each round also yields briefly in real time so
// background goroutines (lease renewals, SAF drains) keep pace with the
// advancing clock.
func (c *Cluster) Settle(n int) {
	for i := 0; i < n; i++ {
		if c.fix.vclk != nil {
			c.fix.vclk.Advance(c.fix.cfg.HeartbeatInterval)
			//wls:wallclock real yield so background goroutines keep pace with the advancing virtual clock
			time.Sleep(2 * time.Millisecond)
		} else {
			c.fix.clock.Sleep(c.fix.cfg.HeartbeatInterval)
		}
	}
}

// Converged reports whether every server (the admin server included) holds
// the same membership view — same servers, incarnations and advertised
// services — and every managed server's ring has the same fingerprint. A
// crashed server's view goes stale, so it is false until the server is
// back.
func (c *Cluster) Converged() bool {
	all := append([]*Server{}, c.Servers...)
	if c.Admin != nil {
		all = append(all, c.Admin)
	}
	view := all[0].member.Alive()
	for _, s := range all[1:] {
		if !sameView(view, s.member.Alive()) {
			return false
		}
	}
	fp := c.Servers[0].parts.Current().Ring.Fingerprint()
	for _, s := range c.Servers[1:] {
		if s.parts.Current().Ring.Fingerprint() != fp {
			return false
		}
	}
	return true
}

func sameView(a, b []cluster.MemberInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Incarnation != b[i].Incarnation ||
			!slices.Equal(a[i].Services, b[i].Services) {
			return false
		}
	}
	return true
}

// AwaitConverged lets a boot or a deployment reach every server. Peers
// answer a joiner's announcement and advertisements beat at once, so with
// RealClock this normally returns without sleeping; it polls Converged for
// at most three heartbeat intervals, the time a lost announcement needs to
// be repaired by the periodic beat. Under the virtual clock it is
// Settle(3): simulated timelines advance exactly as they always have.
func (c *Cluster) AwaitConverged() {
	if c.fix.vclk != nil {
		c.Settle(3)
		return
	}
	deadline := c.fix.clock.Now().Add(3 * c.fix.cfg.HeartbeatInterval)
	for !c.Converged() && c.fix.clock.Now().Before(deadline) {
		c.fix.clock.Sleep(time.Millisecond)
	}
}

// Advance moves the virtual clock (no-op with RealClock).
func (c *Cluster) Advance(d time.Duration) {
	if c.fix.vclk != nil {
		c.fix.vclk.Advance(d)
	} else {
		c.fix.clock.Sleep(d)
	}
}

// Crash kills a server: membership stops, its endpoint closes.
func (c *Cluster) Crash(name string) {
	s := c.Server(name)
	if s == nil {
		return
	}
	s.member.Stop()
	s.endpoint.Close()
}

// Freeze pauses a server without killing it: its endpoint stops processing
// traffic and its heartbeats stop, but its state survives — the §3.4
// split-brain scenario.
func (c *Cluster) Freeze(name string) {
	s := c.Server(name)
	if s == nil {
		return
	}
	s.member.Stop()
	c.fix.net.Freeze(s.endpoint.Addr(), true)
}

// Thaw resumes a frozen server.
func (c *Cluster) Thaw(name string) {
	s := c.Server(name)
	if s == nil {
		return
	}
	c.fix.net.Freeze(s.endpoint.Addr(), false)
	s.member.Start()
}

// Fence cuts a server off at the fabric level (router fencing, §3.4).
func (c *Cluster) Fence(name string, fenced bool) {
	if s := c.Server(name); s != nil {
		c.fix.net.Fence(s.endpoint.Addr(), fenced)
	}
}

// Partition breaks or heals the link between two named servers.
func (c *Cluster) Partition(a, b string, broken bool) {
	sa, sb := c.Server(a), c.Server(b)
	if sa != nil && sb != nil {
		c.fix.net.SetPartitioned(sa.endpoint.Addr(), sb.endpoint.Addr(), broken)
	}
}

// Restart brings a crashed server back with fresh containers (applications
// must be redeployed, as on a real reboot) and its store reopened; the new
// broker recovers from it. A store that does not reopen leaves the server
// down as the crash left it, with no store.
func (c *Cluster) Restart(name string) (*Server, error) {
	s := c.Server(name)
	if s == nil {
		return nil, fmt.Errorf("wls: no server %q", name)
	}
	if s.queue != nil {
		s.queue.Close()
	}
	s.EJB.Close()
	if s.Files != nil {
		// A crash leaves the file as it was; closing drops the old handle.
		_ = s.Files.Close()
		s.Files = nil
	}
	s.endpoint = c.fix.net.Restart(s.endpoint.Addr())
	if err := c.assemble(s); err != nil {
		s.endpoint.Close()
		return nil, err
	}
	return s, nil
}

// ProxyPlugin builds a Fig 2 presentation-tier router with its own
// endpoint on the fabric.
func (c *Cluster) ProxyPlugin(addr string) *webtier.ProxyPlugin {
	node := c.fix.net.Endpoint(addr)
	p := webtier.NewProxyPlugin(node, rmi.MemberView{Member: c.Servers[0].member}, nil)
	if t := c.newTracer(addr); t != nil {
		p.SetTracer(t)
	}
	if r := c.newRouterResilience(addr); r != nil {
		p.SetResilience(r)
	}
	return p
}

// newRouterResilience builds a router-owned resilience layer (nil when
// Options.Resilience is unset). Routers do not share the servers' budgets:
// a router's view of a backend's health is its own.
func (c *Cluster) newRouterResilience(addr string) *rmi.Resilience {
	if !c.opts.Resilience {
		return nil
	}
	return rmi.NewResilience(seedFor(c.opts.Seed, addr), c.fix.clock, nil)
}

// ExternalLB builds a Fig 3 appliance router.
func (c *Cluster) ExternalLB(addr string) *webtier.ExternalLB {
	node := c.fix.net.Endpoint(addr)
	lb := webtier.NewExternalLB(node, rmi.MemberView{Member: c.Servers[0].member}, nil)
	if t := c.newTracer(addr); t != nil {
		lb.SetTracer(t)
	}
	if r := c.newRouterResilience(addr); r != nil {
		lb.SetResilience(r)
	}
	return lb
}

// Traces returns the shared span ring (nil unless Options.TraceSample > 0).
func (c *Cluster) Traces() *trace.Ring { return c.traces }

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	if c.Leases != nil {
		c.Leases.Stop()
	}
	all := append([]*Server{}, c.Servers...)
	if c.Admin != nil {
		all = append(all, c.Admin)
	}
	for _, s := range all {
		s.member.Stop()
		s.endpoint.Close()
		if s.queue != nil {
			s.queue.Close()
		}
		s.EJB.Close()
		if s.Files != nil {
			_ = s.Files.Close() // shutdown path; store is done either way
		}
	}
}
