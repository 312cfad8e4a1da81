package singleton_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wls/internal/lease"
	"wls/internal/simtest"
	"wls/internal/singleton"
	"wls/internal/store"
)

// tracker records activation history for assertions.
type tracker struct {
	mu     sync.Mutex
	active map[string]bool // by server name
	log    []string
}

func newTracker() *tracker { return &tracker{active: map[string]bool{}} }

func (tr *tracker) service(server string) singleton.Activatable {
	return tracked{tr, server}
}

// tracked is one server's instance of the service.
type tracked struct {
	tr     *tracker
	server string
}

func (s tracked) Activate(epoch uint64) error {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.active[s.server] = true
	s.tr.log = append(s.tr.log, fmt.Sprintf("activate:%s:%d", s.server, epoch))
	return nil
}

func (s tracked) Deactivate() {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.active[s.server] = false
	s.tr.log = append(s.tr.log, "deactivate:"+s.server)
}

func (tr *tracker) activeServers() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []string
	for s, a := range tr.active {
		if a {
			out = append(out, s)
		}
	}
	return out
}

// singletonFixture builds a cluster with a lease manager on server-1 and a
// Host candidacy on every server.
type singletonFixture struct {
	f     *simtest.Fixture
	mgr   *lease.Manager
	hosts []*singleton.Host
	tr    *tracker
}

func newSingletonFixture(t *testing.T, servers int, cfg singleton.Config) *singletonFixture {
	t.Helper()
	// One extra member acts as the admin server hosting the lease manager
	// (in production this is the consensus-elected management leader; its
	// own availability is covered by the consensus tests).
	f := simtest.New(simtest.Options{Servers: servers + 1})
	t.Cleanup(f.Stop)
	admin := f.Servers[servers]
	tbl := store.New("leasedb", f.Clock)
	mgr := lease.NewManager(f.Clock, lease.AlwaysLeader(), tbl, time.Second)
	admin.Registry.Register(mgr.RMIService())
	mgr.Start()
	t.Cleanup(mgr.Stop)
	f.Settle(2)

	tr := newTracker()
	var hosts []*singleton.Host
	for _, s := range f.Servers[:servers] {
		h := singleton.NewHost(cfg, s.Member, s.Registry, tr.service(s.Name), admin.Endpoint.Addr())
		hosts = append(hosts, h)
	}
	return &singletonFixture{f: f, mgr: mgr, hosts: hosts, tr: tr}
}

func (sf *singletonFixture) startAll(t *testing.T) {
	for _, h := range sf.hosts {
		h.Start()
	}
	t.Cleanup(func() {
		for _, h := range sf.hosts {
			h.Stop()
		}
	})
}

func (sf *singletonFixture) settle(rounds int) {
	for i := 0; i < rounds; i++ {
		sf.f.VClock.Advance(250 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
}

func activeHosts(hosts []*singleton.Host) []*singleton.Host {
	var out []*singleton.Host
	for _, h := range hosts {
		if h.Active() {
			out = append(out, h)
		}
	}
	return out
}

func TestContinuousSingletonActivatesOnMostPreferred(t *testing.T) {
	sf := newSingletonFixture(t, 3, singleton.Config{
		Service:   "jms-server",
		Preferred: []string{"server-2", "server-1", "server-3"},
	})
	sf.startAll(t)
	sf.settle(4)

	if !sf.hosts[1].Active() {
		t.Fatal("most-preferred server-2 should host the service")
	}
	if len(activeHosts(sf.hosts)) != 1 {
		t.Fatalf("%d active hosts, want 1", len(activeHosts(sf.hosts)))
	}
}

func TestMigrationOnOwnerCrash(t *testing.T) {
	sf := newSingletonFixture(t, 3, singleton.Config{
		Service:   "q",
		Preferred: []string{"server-2", "server-3", "server-1"},
	})
	sf.startAll(t)
	sf.settle(4)
	if !sf.hosts[1].Active() {
		t.Fatal("server-2 should start as owner")
	}
	epochBefore := sf.hosts[1].Epoch()

	sf.f.Crash("server-2")
	sf.hosts[1].Stop()
	sf.settle(12) // lease expiry + takeover

	act := activeHosts(sf.hosts)
	if len(act) != 1 || !sf.hosts[2].Active() {
		t.Fatalf("service should migrate to next-preferred server-3; active=%d", len(act))
	}
	if sf.hosts[2].Epoch() <= epochBefore {
		t.Fatalf("epoch must increase on migration: %d -> %d", epochBefore, sf.hosts[2].Epoch())
	}
}

func TestMigrationBackOnPreferredRejoin(t *testing.T) {
	sf := newSingletonFixture(t, 2, singleton.Config{
		Service:   "q",
		Preferred: []string{"server-1", "server-2"},
	})
	sf.startAll(t)
	sf.settle(4)
	if !sf.hosts[0].Active() {
		t.Fatal("server-1 should own initially")
	}

	sf.f.Crash("server-1")
	sf.hosts[0].Stop()
	sf.settle(12)
	if !sf.hosts[1].Active() {
		t.Fatal("server-2 should take over")
	}

	// server-1 comes back: the service migrates home ("keeps it on the
	// most-preferred server that is currently active").
	sf.f.Restart("server-1")
	sf.hosts[0] = singleton.NewHost(singleton.Config{
		Service:   "q",
		Preferred: []string{"server-1", "server-2"},
	}, sf.f.Servers[0].Member, sf.f.Servers[0].Registry, sf.tr.service("server-1"),
		sf.f.Servers[2].Endpoint.Addr())
	sf.hosts[0].Start()
	t.Cleanup(sf.hosts[0].Stop)
	sf.settle(12)

	if !sf.hosts[0].Active() {
		t.Fatal("service did not migrate back to most-preferred server-1")
	}
	if sf.hosts[1].Active() {
		t.Fatal("old owner still active after handoff")
	}
}

func TestAtMostOneActiveAlways(t *testing.T) {
	sf := newSingletonFixture(t, 4, singleton.Config{Service: "q"})
	sf.startAll(t)
	for round := 0; round < 40; round++ {
		sf.f.VClock.Advance(200 * time.Millisecond)
		time.Sleep(time.Millisecond)
		if n := len(activeHosts(sf.hosts)); n > 1 {
			t.Fatalf("round %d: %d active hosts (split brain)", round, n)
		}
	}
	if len(activeHosts(sf.hosts)) != 1 {
		t.Fatal("no owner after settling")
	}
}

// TestSplitBrainFrozenOwner is the §3.4 scenario: the owner freezes (not
// dead), the lease expires, a new owner activates. The frozen server thaws
// and must refuse operations because its lease is gone — Guard enforces the
// grace-period contract.
func TestSplitBrainFrozenOwner(t *testing.T) {
	sf := newSingletonFixture(t, 3, singleton.Config{
		Service:   "q",
		Preferred: []string{"server-2", "server-3"},
	})
	sf.startAll(t)
	sf.settle(4)
	if !sf.hosts[1].Active() {
		t.Fatal("server-2 should own")
	}

	// Freeze: heartbeats stop, lease renewals fail, but the process lives.
	sf.f.Freeze("server-2")
	sf.settle(12)

	if !sf.hosts[2].Active() {
		t.Fatal("server-3 should take over the frozen owner's service")
	}
	newEpoch := sf.hosts[2].Epoch()

	// Thaw the old owner. Its lease is expired; Guard must reject work
	// immediately (before any retry window in which it could legitimately
	// re-acquire with a fresh epoch).
	sf.f.Thaw("server-2")
	err := sf.hosts[1].Guard(func() error {
		t.Fatal("frozen ex-owner executed a guarded operation")
		return nil
	})
	if err != singleton.ErrNotOwner {
		t.Fatalf("want ErrNotOwner from thawed ex-owner, got %v", err)
	}
	// And the fencing epoch of the new owner is strictly higher than any
	// grant the old owner ever saw.
	if newEpoch == 0 {
		t.Fatal("new owner has no epoch")
	}
	// Note: server-2 outranks server-3 in preference, so after thawing it
	// may legitimately re-acquire later — but only via a NEW epoch, never
	// by resuming the old one.
	sf.settle(12)
	for _, h := range activeHosts(sf.hosts) {
		if h.Epoch() < newEpoch {
			t.Fatalf("owner resumed with stale epoch %d < %d", h.Epoch(), newEpoch)
		}
	}
}

func TestGuardOnNonOwner(t *testing.T) {
	sf := newSingletonFixture(t, 2, singleton.Config{
		Service:   "q",
		Preferred: []string{"server-1"},
	})
	sf.startAll(t)
	sf.settle(4)
	if err := sf.hosts[1].Guard(func() error { return nil }); err != singleton.ErrNotOwner {
		t.Fatalf("want ErrNotOwner, got %v", err)
	}
	if err := sf.hosts[0].Guard(func() error { return nil }); err != nil {
		t.Fatalf("owner guard failed: %v", err)
	}
}

func TestStopReleasesPromptly(t *testing.T) {
	sf := newSingletonFixture(t, 2, singleton.Config{
		Service:   "q",
		Preferred: []string{"server-1", "server-2"},
	})
	sf.startAll(t)
	sf.settle(4)
	if !sf.hosts[0].Active() {
		t.Fatal("server-1 should own")
	}
	// Clean shutdown releases the lease: the successor needs no expiry
	// wait, only its rank-staggered patience (rank 1 → two retry ticks).
	sf.hosts[0].Stop()
	sf.settle(8)
	if !sf.hosts[1].Active() {
		t.Fatal("clean handoff did not happen promptly")
	}
}

// TestStartStopLeavesNoListener: each Start registers a membership
// listener, and the Stop after it must remove it, or every restarted
// candidacy runs evaluate once more on each join and failure.
func TestStartStopLeavesNoListener(t *testing.T) {
	sf := newSingletonFixture(t, 2, singleton.Config{
		Service:   "q",
		Preferred: []string{"server-1", "server-2"},
	})
	m := sf.f.Servers[0].Member
	before := m.Listeners()
	for i := 0; i < 5; i++ {
		sf.hosts[0].Start()
		if got := m.Listeners(); got != before+1 {
			t.Fatalf("cycle %d: %d listeners while started, want %d", i, got, before+1)
		}
		sf.settle(2)
		sf.hosts[0].Stop()
	}
	if got := m.Listeners(); got != before {
		t.Fatalf("%d listeners after 5 start/stop cycles, want %d as before the first Start", got, before)
	}
}

// --- On-demand singletons ---------------------------------------------------

func odFixture(t *testing.T) (*simtest.Fixture, []*singleton.OnDemand, *tracker) {
	t.Helper()
	f := simtest.New(simtest.Options{Servers: 4})
	t.Cleanup(f.Stop)
	admin := f.Servers[3]
	tbl := store.New("leasedb", f.Clock)
	mgr := lease.NewManager(f.Clock, lease.AlwaysLeader(), tbl, time.Second)
	admin.Registry.Register(mgr.RMIService())
	f.Settle(2)

	tr := newTracker()
	var ods []*singleton.OnDemand
	for _, s := range f.Servers[:3] {
		server := s.Name
		od := singleton.NewOnDemand("profiles", server, f.Clock, s.Endpoint,
			func(key string) singleton.Activatable { return tr.service(server + "/" + key) },
			admin.Endpoint.Addr())
		ods = append(ods, od)
		t.Cleanup(od.Stop)
	}
	return f, ods, tr
}

func TestOnDemandActivatesLocally(t *testing.T) {
	_, ods, _ := odFixture(t)
	p, err := ods[1].Use(context.Background(), "user-42")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Local || p.Owner != "server-2" || p.Epoch == 0 {
		t.Fatalf("placement = %+v", p)
	}
	if keys := ods[1].ActiveKeys(); len(keys) != 1 || keys[0] != "user-42" {
		t.Fatalf("active keys = %v", keys)
	}
}

func TestOnDemandSecondServerSeesRemoteOwner(t *testing.T) {
	_, ods, _ := odFixture(t)
	if _, err := ods[1].Use(context.Background(), "user-42"); err != nil {
		t.Fatal(err)
	}
	p, err := ods[2].Use(context.Background(), "user-42")
	if err != nil {
		t.Fatal(err)
	}
	if p.Local || p.Owner != "server-2" {
		t.Fatalf("placement = %+v, want remote owner server-2", p)
	}
}

func TestOnDemandMigratesAfterPassivate(t *testing.T) {
	_, ods, _ := odFixture(t)
	if _, err := ods[1].Use(context.Background(), "user-42"); err != nil {
		t.Fatal(err)
	}
	if err := ods[1].Passivate(context.Background(), "user-42"); err != nil {
		t.Fatal(err)
	}
	p, err := ods[2].Use(context.Background(), "user-42")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Local || p.Owner != "server-3" {
		t.Fatalf("placement after migration = %+v", p)
	}
}

func TestOnDemandUseIsIdempotentLocally(t *testing.T) {
	_, ods, _ := odFixture(t)
	p1, err := ods[0].Use(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ods[0].Use(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("repeated Use changed placement: %+v vs %+v", p1, p2)
	}
}

// --- Partitioning ------------------------------------------------------------

func TestPartitionSetSpreadsAndRoutesStably(t *testing.T) {
	p := singleton.PartitionSet{Service: "orders-q", N: 4,
		Candidates: []string{"server-1", "server-2", "server-3"}}
	if p.PartitionService(2) != "orders-q#2" {
		t.Fatalf("name = %s", p.PartitionService(2))
	}
	// Rotation: partition i prefers candidate i mod n first.
	if got := p.PreferredFor(1)[0]; got != "server-2" {
		t.Fatalf("partition 1 prefers %s", got)
	}
	if got := p.PreferredFor(3)[0]; got != "server-1" {
		t.Fatalf("partition 3 prefers %s", got)
	}
	// Stable routing.
	for _, key := range []string{"alice", "bob", "carol"} {
		a, b := p.PartitionOf(key), p.PartitionOf(key)
		if a != b || a < 0 || a >= p.N {
			t.Fatalf("unstable or out-of-range partition for %s: %d/%d", key, a, b)
		}
	}
}

func TestPartitionedHostsActivateEachPartitionOnce(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 4})
	defer f.Stop()
	admin := f.Servers[3]
	tbl := store.New("leasedb", f.Clock)
	mgr := lease.NewManager(f.Clock, lease.AlwaysLeader(), tbl, time.Second)
	admin.Registry.Register(mgr.RMIService())
	f.Settle(2)

	p := singleton.PartitionSet{Service: "q", N: 3,
		Candidates: []string{"server-1", "server-2", "server-3"}}
	tr := newTracker()
	var all []*singleton.Host
	for _, s := range f.Servers[:3] {
		server := s.Name
		hosts := p.HostsFor(s.Member, s.Registry, func(i int) singleton.Activatable {
			return tr.service(fmt.Sprintf("%s/part%d", server, i))
		}, admin.Endpoint.Addr())
		for _, h := range hosts {
			h.Start()
			defer h.Stop()
		}
		all = append(all, hosts...)
	}
	for i := 0; i < 6; i++ {
		f.VClock.Advance(250 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}

	// Exactly one active host per partition, and they are spread across
	// distinct servers (rotation).
	perPartition := map[int][]string{}
	for idx, h := range all {
		if h.Active() {
			server := f.Servers[idx/p.N].Name
			perPartition[idx%p.N] = append(perPartition[idx%p.N], server)
		}
	}
	owners := map[string]bool{}
	for i := 0; i < p.N; i++ {
		if len(perPartition[i]) != 1 {
			t.Fatalf("partition %d active on %v", i, perPartition[i])
		}
		owners[perPartition[i][0]] = true
	}
	if len(owners) != 3 {
		t.Fatalf("partitions not spread: %v", perPartition)
	}
}
