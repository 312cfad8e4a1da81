package cluster_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/vclock"
)

// TestMembershipOverUDP runs cluster membership over real UDP sockets —
// the unicast-messaging deployment mode for environments without IP
// multicast. Each member has its own bus instance (as separate processes
// would).
func TestMembershipOverUDP(t *testing.T) {
	cfg := cluster.Config{Name: "udp", HeartbeatInterval: 50 * time.Millisecond,
		FailureTimeout: 250 * time.Millisecond}

	var buses []*gossip.UDPBus
	for i := 0; i < 3; i++ {
		b, err := gossip.NewUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		buses = append(buses, b)
		t.Cleanup(func() { b.Close() })
	}
	// Full mesh.
	for _, a := range buses {
		for _, b := range buses {
			if a != b {
				a.AddPeer(b.Addr())
			}
		}
	}

	var members []*cluster.Member
	for i, b := range buses {
		m := cluster.NewMember(cfg, vclock.System, b, cluster.MemberInfo{
			Name:    "udp-" + string(rune('a'+i)),
			Machine: "m" + string(rune('1'+i)),
		})
		m.Start()
		members = append(members, m)
		t.Cleanup(m.Stop)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, m := range members {
			if len(m.Alive()) != 3 {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, m := range members {
		if got := len(m.Alive()); got != 3 {
			t.Fatalf("%s sees %d members over UDP, want 3", m.Self().Name, got)
		}
	}

	// Service advertisement crosses sockets too.
	members[0].Advertise("OrderService")
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(members[2].OffersOf("OrderService")) == 0 {
		time.Sleep(20 * time.Millisecond)
	}
	if len(members[2].OffersOf("OrderService")) != 1 {
		t.Fatal("advertisement did not cross UDP")
	}

	// Failure detection over UDP.
	members[1].Stop()
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && len(members[0].Alive()) != 2 {
		time.Sleep(20 * time.Millisecond)
	}
	if len(members[0].Alive()) != 2 {
		t.Fatal("failure not detected over UDP")
	}
}

// udpMesh opens n fully meshed UDP buses, one per member as separate
// processes would have.
func udpMesh(t *testing.T, n int) []*gossip.UDPBus {
	t.Helper()
	var buses []*gossip.UDPBus
	for i := 0; i < n; i++ {
		b, err := gossip.NewUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		buses = append(buses, b)
		t.Cleanup(func() { b.Close() })
	}
	for _, a := range buses {
		for _, b := range buses {
			if a != b {
				a.AddPeer(b.Addr())
			}
		}
	}
	return buses
}

// allOffer reports whether every member sees every member offering "svc".
func allOffer(ms []*cluster.Member) bool {
	for _, m := range ms {
		if len(m.OffersOf("svc")) != len(ms) {
			return false
		}
	}
	return true
}

// within polls cond until it holds or d elapses.
func within(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestJoinOverUDPBeatsTheInterval is the event-driven join on real
// datagrams. The heartbeat interval is ten seconds, so no periodic beat
// fires during the test: every view below is filled by a join answer, one
// loopback round trip after Start. The deadline is a tenth of the
// interval.
func TestJoinOverUDPBeatsTheInterval(t *testing.T) {
	cfg := cluster.Config{Name: "udp-join", HeartbeatInterval: 10 * time.Second, FailureTimeout: time.Minute}
	const n, deadline = 5, time.Second
	buses := udpMesh(t, n+1) // the last bus is the restarted process's

	var mu sync.Mutex
	joins := map[string]int{} // "observer<-peer" -> EventJoined count
	start := func(i int, b *gossip.UDPBus, incarnation uint64) *cluster.Member {
		name := "udp-" + string(rune('a'+i))
		m := cluster.NewMember(cfg, vclock.System, b, cluster.MemberInfo{
			Name: name, Machine: "m" + string(rune('1'+i)), Incarnation: incarnation,
		})
		m.OnEvent(func(ev cluster.Event) {
			if ev.Kind == cluster.EventJoined {
				mu.Lock()
				joins[name+"<-"+ev.Member.Name]++
				mu.Unlock()
			}
		})
		m.Start()
		m.Advertise("svc")
		t.Cleanup(m.Stop)
		return m
	}

	// (a) Staggered cold boot: each joiner is complete before the next starts.
	var ms []*cluster.Member
	for i := 0; i < n; i++ {
		ms = append(ms, start(i, buses[i], 0))
		if !within(deadline, func() bool { return allOffer(ms) }) {
			t.Fatalf("views not full %v after member %d started (interval %v)", deadline, i+1, cfg.HeartbeatInterval)
		}
	}
	mu.Lock()
	for _, a := range ms {
		for _, b := range ms {
			if a != b && joins[a.Name()+"<-"+b.Name()] != 1 {
				t.Errorf("%s fired %d EventJoined for %s, want 1", a.Name(), joins[a.Name()+"<-"+b.Name()], b.Name())
			}
		}
	}
	mu.Unlock()

	// (b) Crash and restart as a new process with a higher incarnation.
	ms[1].Stop()
	old := ms[1].Self()
	ms[1] = start(1, buses[n], old.Incarnation)
	if !within(deadline, func() bool {
		if !allOffer(ms) {
			return false
		}
		for _, m := range ms {
			if info, ok := m.Lookup(old.Name); !ok || info.Incarnation != old.Incarnation+1 {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("restarted member not back in every view %v after Start", deadline)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range ms {
		if i != 1 && joins[m.Name()+"<-"+old.Name] != 2 {
			t.Errorf("%s fired %d EventJoined for %s over boot and restart, want 2", m.Name(), joins[m.Name()+"<-"+old.Name], old.Name)
		}
	}
}

// TestJoinOverLossyUDPConverges drops half of all received datagrams at
// each member: join answers are lost like anything else, the periodic beat
// repairs it, and full views stay full.
func TestJoinOverLossyUDPConverges(t *testing.T) {
	cfg := cluster.Config{Name: "udp-loss", HeartbeatInterval: 20 * time.Millisecond, FailureTimeout: 5 * time.Second}
	const n = 4
	var ms []*cluster.Member
	for i, b := range udpMesh(t, n) {
		m := cluster.NewMember(cfg, vclock.System, lossyBus{Bus: b, rng: rand.New(rand.NewSource(int64(i + 1)))}, cluster.MemberInfo{
			Name: "udp-" + string(rune('a'+i)), Machine: "m" + string(rune('1'+i)),
		})
		m.Start()
		m.Advertise("svc")
		t.Cleanup(m.Stop)
		ms = append(ms, m)
	}
	full := func() bool { return allOffer(ms) }
	if !within(3*time.Second, full) {
		t.Fatal("views not full after 3s at 50% loss")
	}
	for i := 0; i < 10; i++ {
		time.Sleep(cfg.HeartbeatInterval)
		if !full() {
			t.Fatalf("views diverged %d intervals after converging", i+1)
		}
	}
}

// lossyBus drops half of the deliveries to its subscribers.
type lossyBus struct {
	gossip.Bus
	rng *rand.Rand
}

func (l lossyBus) Subscribe(topic string, fn func(gossip.Message)) func() {
	var mu sync.Mutex
	return l.Bus.Subscribe(topic, func(m gossip.Message) {
		mu.Lock()
		drop := l.rng.Intn(2) == 0
		mu.Unlock()
		if !drop {
			fn(m)
		}
	})
}
