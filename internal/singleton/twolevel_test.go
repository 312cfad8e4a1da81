package singleton_test

import (
	"testing"
	"time"

	"wls/internal/consensus"
	"wls/internal/lease"
	"wls/internal/simtest"
	"wls/internal/singleton"
	"wls/internal/store"
)

// TestTwoLevelHAArchitecture wires up the full §3.4 stack exactly as the
// paper prescribes: "continuous singleton services are directly
// implemented using … some kind of distributed consensus protocol …
// these baseline services are used to bootstrap a highly-available lease
// manager which grants leases to own services."
//
// Three management servers run electors; each also runs a lease-manager
// replica gated on its elector's leadership, all sharing one persistent
// lease table. Two application servers compete for a singleton. Then the
// management leader crashes: a new leader takes over granting, and the
// singleton's owner keeps renewing without ever losing the service.
func TestTwoLevelHAArchitecture(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 5}) // 3 mgmt + 2 app
	defer f.Stop()
	mgmt, apps := f.Servers[:3], f.Servers[3:]

	// Level 1: consensus among the management servers.
	peers := map[string]string{}
	for _, s := range mgmt {
		peers[s.Name] = s.Endpoint.Addr()
	}
	var electors []*consensus.Elector
	for _, s := range mgmt {
		e := consensus.NewElector(consensus.Config{Self: s.Name, Peers: peers, Seed: 11},
			f.Clock, s.Registry)
		e.Start()
		defer e.Stop()
		electors = append(electors, e)
	}

	// Level 2: lease-manager replicas gated on leadership, over a shared
	// persistent table.
	table := store.New("leasedb", f.Clock)
	var mgrAddrs []string
	for i, s := range mgmt {
		mgr := lease.NewManager(f.Clock, electors[i], table, time.Second)
		s.Registry.Register(mgr.RMIService())
		mgr.Start()
		defer mgr.Stop()
		mgrAddrs = append(mgrAddrs, s.Endpoint.Addr())
	}

	advance := func(rounds int) {
		for i := 0; i < rounds; i++ {
			f.VClock.Advance(100 * time.Millisecond)
			time.Sleep(2 * time.Millisecond)
		}
	}
	leaderIdx := func() int {
		for i, e := range electors {
			if e.IsLeader() {
				return i
			}
		}
		return -1
	}
	// Wait for a management leader.
	for i := 0; i < 100 && leaderIdx() < 0; i++ {
		advance(2)
	}
	if leaderIdx() < 0 {
		t.Fatal("no management leader elected")
	}

	// The application tier: two candidates for one continuous singleton,
	// holders probing all three manager replicas for the current leader.
	tr := newTracker()
	var hosts []*singleton.Host
	for _, s := range apps {
		h := singleton.NewHost(singleton.Config{
			Service:   "jms-server",
			Preferred: []string{"server-4", "server-5"},
		}, s.Member, s.Registry, tr.service(s.Name), mgrAddrs...)
		h.Start()
		defer h.Stop()
		hosts = append(hosts, h)
	}
	for i := 0; i < 50 && !hosts[0].Active(); i++ {
		advance(2)
	}
	if !hosts[0].Active() {
		t.Fatal("singleton did not activate through the elected lease manager")
	}
	epochBefore := hosts[0].Epoch()

	// Crash the management leader. The holder's renewals will fail over
	// to whichever replica wins the next election.
	oldLeader := leaderIdx()
	f.Crash(mgmt[oldLeader].Name)
	electors[oldLeader].Stop()

	// The singleton must survive the management failover: the owner keeps
	// (or regains) the service, and no second owner ever appears.
	sawBoth := false
	ownerHeldAtEnd := false
	for i := 0; i < 150; i++ {
		advance(1)
		a0, a1 := hosts[0].Active(), hosts[1].Active()
		if a0 && a1 {
			sawBoth = true
		}
		ownerHeldAtEnd = a0 || a1
	}
	if sawBoth {
		t.Fatal("two active owners during management failover (split brain)")
	}
	if !ownerHeldAtEnd {
		t.Fatal("singleton lost across management-leader failover")
	}
	// A new management leader exists and grants are consistent with the
	// persistent table: the epoch never regressed.
	if leaderIdx() < 0 {
		t.Fatal("no new management leader")
	}
	for _, h := range hosts {
		if h.Active() && h.Epoch() < epochBefore {
			t.Fatalf("epoch regressed: %d < %d", h.Epoch(), epochBefore)
		}
	}
}
