// Package simtest provides the shared simulation fixture used by the test
// suites and benchmarks of the higher layers: a virtual clock, a netsim
// fabric, a gossip bus, and N application servers each with cluster
// membership and an RMI registry.
//
// It lives outside the _test files so that every package (ejb, jms,
// servlet, wsdl, the bench harness, the examples) can build clusters the
// same way.
package simtest

import (
	"fmt"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/metrics"
	"wls/internal/netsim"
	"wls/internal/rmi"
	"wls/internal/vclock"
)

// Server bundles one simulated application server's plumbing.
type Server struct {
	Name     string
	Endpoint *netsim.Endpoint
	Member   *cluster.Member
	Registry *rmi.Registry
	Metrics  *metrics.Registry
}

// View returns this server's internal-client view for stub creation.
func (s *Server) View() rmi.View { return rmi.MemberView{Member: s.Member} }

// Stub creates an internal-client stub on this server.
func (s *Server) Stub(service string, opts ...rmi.StubOption) *rmi.Stub {
	return rmi.NewStub(service, s.Endpoint, s.View(), opts...)
}

// Options configures a fixture.
type Options struct {
	// Servers is the cluster size (default 3).
	Servers int
	// ServersPerMachine controls machine assignment (default 1: every
	// server on its own machine).
	ServersPerMachine int
	// HeartbeatInterval defaults to 100ms, FailureTimeout to 350ms.
	HeartbeatInterval time.Duration
	FailureTimeout    time.Duration
	// ReplicationGroups assigns each server i the group
	// ReplicationGroups[i % len]. Empty means no groups.
	ReplicationGroups []string
	// PreferredSecondaryGroups is copied to every member.
	PreferredSecondaryGroups []string
	// Seed for deterministic announcement-bus randomness.
	Seed int64
	// RealClock uses the wall clock instead of a virtual one (for
	// benchmarks that measure real throughput).
	RealClock bool
}

// Fixture is a simulated cluster.
type Fixture struct {
	Clock   vclock.Clock
	VClock  *vclock.Virtual // nil when Options.RealClock
	Net     *netsim.Network
	Bus     *gossip.InMemory
	Servers []*Server
	cfg     cluster.Config
}

// New builds and starts a fixture.
func New(opts Options) *Fixture {
	if opts.Servers == 0 {
		opts.Servers = 3
	}
	if opts.ServersPerMachine == 0 {
		opts.ServersPerMachine = 1
	}
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 100 * time.Millisecond
	}
	if opts.FailureTimeout == 0 {
		opts.FailureTimeout = 350 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	var clk vclock.Clock
	var vclk *vclock.Virtual
	if opts.RealClock {
		clk = vclock.System
	} else {
		vclk = vclock.NewVirtualAtZero()
		clk = vclk
	}
	f := &Fixture{
		Clock:  clk,
		VClock: vclk,
		Net:    netsim.New(clk),
		Bus:    gossip.NewInMemory(clk, opts.Seed),
		cfg: cluster.Config{
			Name:              "cluster",
			HeartbeatInterval: opts.HeartbeatInterval,
			FailureTimeout:    opts.FailureTimeout,
		},
	}
	for i := 0; i < opts.Servers; i++ {
		name := fmt.Sprintf("server-%d", i+1)
		addr := fmt.Sprintf("10.0.0.%d:7001", i+1)
		machine := fmt.Sprintf("machine-%d", i/opts.ServersPerMachine+1)
		group := ""
		if len(opts.ReplicationGroups) > 0 {
			group = opts.ReplicationGroups[i%len(opts.ReplicationGroups)]
		}
		ep := f.Net.Endpoint(addr)
		reg := metrics.NewRegistry()
		member := cluster.NewMember(f.cfg, clk, f.Bus, cluster.MemberInfo{
			Name:                     name,
			Addr:                     addr,
			Machine:                  machine,
			ReplicationGroup:         group,
			PreferredSecondaryGroups: opts.PreferredSecondaryGroups,
		})
		registry := rmi.NewRegistry(ep, member, reg)
		member.Start()
		f.Servers = append(f.Servers, &Server{
			Name:     name,
			Endpoint: ep,
			Member:   member,
			Registry: registry,
			Metrics:  reg,
		})
	}
	f.Settle(3)
	return f
}

// Server returns the server with the given name, or nil.
func (f *Fixture) Server(name string) *Server {
	for _, s := range f.Servers {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Settle advances the virtual clock through n heartbeat rounds so
// membership and advertisements converge. With a real clock it sleeps.
func (f *Fixture) Settle(n int) {
	for i := 0; i < n; i++ {
		if f.VClock != nil {
			f.VClock.Advance(f.cfg.HeartbeatInterval)
		} else {
			f.Clock.Sleep(f.cfg.HeartbeatInterval)
		}
	}
}

// SettleTimeout advances past the failure-detection timeout.
func (f *Fixture) SettleTimeout() {
	rounds := int(f.cfg.FailureTimeout/f.cfg.HeartbeatInterval) + 2
	f.Settle(rounds)
}

// Crash stops a server's membership and closes its endpoint.
func (f *Fixture) Crash(name string) {
	s := f.Server(name)
	if s == nil {
		return
	}
	s.Member.Stop()
	s.Endpoint.Close()
}

// Freeze pauses a server's endpoint and stops its heartbeats without
// marking it dead — the §3.4 split-brain scenario. Membership heartbeats
// stop because the member is stopped; the endpoint still exists.
func (f *Fixture) Freeze(name string) {
	s := f.Server(name)
	if s == nil {
		return
	}
	s.Member.Stop()
	f.Net.Freeze(s.Endpoint.Addr(), true)
}

// Thaw resumes a frozen server.
func (f *Fixture) Thaw(name string) {
	s := f.Server(name)
	if s == nil {
		return
	}
	f.Net.Freeze(s.Endpoint.Addr(), false)
	s.Member.Start()
}

// Fence cuts a server off at the fabric level — the router fencing of
// §3.4: everything it sends and everything sent to it is dropped.
func (f *Fixture) Fence(name string, fenced bool) {
	if s := f.Server(name); s != nil {
		f.Net.Fence(s.Endpoint.Addr(), fenced)
	}
}

// Partition breaks or heals the link between two named servers.
func (f *Fixture) Partition(a, b string, broken bool) {
	sa, sb := f.Server(a), f.Server(b)
	if sa != nil && sb != nil {
		f.Net.SetPartitioned(sa.Endpoint.Addr(), sb.Endpoint.Addr(), broken)
	}
}

// Restart restarts a previously crashed server: a fresh endpoint on the
// same address, a fresh registry, and a new membership incarnation.
// Services must be re-registered by the caller (as a restarted server
// redeploys its applications).
func (f *Fixture) Restart(name string) *Server {
	s := f.Server(name)
	if s == nil {
		return nil
	}
	ep := f.Net.Restart(s.Endpoint.Addr())
	s.Endpoint = ep
	s.Metrics = metrics.NewRegistry()
	s.Registry = rmi.NewRegistry(ep, s.Member, s.Metrics)
	s.Member.Start()
	return s
}

// Stop shuts the whole fixture down.
func (f *Fixture) Stop() {
	for _, s := range f.Servers {
		s.Member.Stop()
		s.Endpoint.Close()
	}
}

// FrozenClock's time never moves and its waits end at once: a Resilience
// on it keeps an open breaker open and backs off for no time, whatever
// clock the fabric runs on.
type FrozenClock struct{ *vclock.Virtual }

// After fires at once.
func (FrozenClock) After(time.Duration) <-chan time.Time {
	c := make(chan time.Time, 1)
	c <- time.Time{}
	return c
}
