package cluster

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"wls/internal/gossip"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// testCluster spins up n members named s1..sN on a shared virtual clock and
// in-memory bus, two servers per machine.
func testCluster(t *testing.T, n int) (*vclock.Virtual, *gossip.InMemory, []*Member) {
	t.Helper()
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, 1)
	cfg := Config{Name: "c", HeartbeatInterval: 100 * time.Millisecond, FailureTimeout: 350 * time.Millisecond}
	var members []*Member
	for i := 1; i <= n; i++ {
		m := NewMember(cfg, clk, bus, MemberInfo{
			Name:    fmt.Sprintf("s%d", i),
			Addr:    fmt.Sprintf("10.0.0.%d:7001", i),
			Machine: fmt.Sprintf("m%d", (i+1)/2),
		})
		members = append(members, m)
		m.Start()
		t.Cleanup(m.Stop)
	}
	return clk, bus, members
}

// settle advances the virtual clock through several heartbeat rounds and
// gives bus goroutines time to deliver.
func settle(clk *vclock.Virtual, rounds int) {
	for i := 0; i < rounds; i++ {
		clk.Advance(100 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMembersDiscoverEachOther(t *testing.T) {
	clk, _, ms := testCluster(t, 3)
	settle(clk, 3)
	for _, m := range ms {
		alive := m.Alive()
		if len(alive) != 3 {
			t.Fatalf("%s sees %d members, want 3", m.Self().Name, len(alive))
		}
		// Ring order.
		for i := 1; i < len(alive); i++ {
			if alive[i-1].Name >= alive[i].Name {
				t.Fatalf("alive view not sorted: %v", alive)
			}
		}
	}
}

func TestFailureDetection(t *testing.T) {
	clk, _, ms := testCluster(t, 3)
	settle(clk, 3)

	var mu sync.Mutex
	var failedName string
	ms[0].OnEvent(func(ev Event) {
		if ev.Kind == EventFailed {
			mu.Lock()
			failedName = ev.Member.Name
			mu.Unlock()
		}
	})

	ms[2].Stop()
	settle(clk, 6)

	mu.Lock()
	got := failedName
	mu.Unlock()
	if got != "s3" {
		t.Fatalf("failed event for %q, want s3", got)
	}
	if len(ms[0].Alive()) != 2 {
		t.Fatalf("alive = %d, want 2", len(ms[0].Alive()))
	}
	if _, ok := ms[0].Lookup("s3"); ok {
		t.Fatal("failed member should not resolve in Lookup")
	}
}

// TestCancelledListenerHearsNothing: the func OnEvent returns removes its
// listener, and only it; calling it twice removes nothing more.
func TestCancelledListenerHearsNothing(t *testing.T) {
	clk, _, ms := testCluster(t, 3)
	settle(clk, 3)
	var mu sync.Mutex
	heard := map[string]int{}
	listen := func(name string) func() {
		return ms[0].OnEvent(func(ev Event) {
			if ev.Kind == EventFailed {
				mu.Lock()
				heard[name]++
				mu.Unlock()
			}
		})
	}
	before := ms[0].Listeners()
	cancel := listen("cancelled")
	listen("kept")
	cancel()
	cancel()
	if got := ms[0].Listeners(); got != before+1 {
		t.Fatalf("%d listeners, want %d", got, before+1)
	}
	ms[2].Stop()
	settle(clk, 6)
	mu.Lock()
	defer mu.Unlock()
	if heard["cancelled"] != 0 || heard["kept"] != 1 {
		t.Fatalf("failure events heard: %v, want only the kept listener's one", heard)
	}
}

func TestRejoinWithNewIncarnation(t *testing.T) {
	clk, _, ms := testCluster(t, 2)
	settle(clk, 3)
	ms[1].Stop()
	settle(clk, 6)
	if len(ms[0].Alive()) != 1 {
		t.Fatal("s2 should be failed")
	}

	var mu sync.Mutex
	joins := 0
	ms[0].OnEvent(func(ev Event) {
		if ev.Kind == EventJoined && ev.Member.Name == "s2" {
			mu.Lock()
			joins++
			mu.Unlock()
		}
	})
	ms[1].Start()
	settle(clk, 3)
	if len(ms[0].Alive()) != 2 {
		t.Fatal("restarted member not re-admitted")
	}
	mu.Lock()
	defer mu.Unlock()
	if joins == 0 {
		t.Fatal("no EventJoined for restarted member")
	}
}

func TestAdvertiseWithdrawPropagates(t *testing.T) {
	clk, _, ms := testCluster(t, 3)
	settle(clk, 3)
	ms[0].Advertise("OrderService")
	ms[1].Advertise("OrderService")
	settle(clk, 2)

	offers := ms[2].OffersOf("OrderService")
	if len(offers) != 2 || offers[0].Name != "s1" || offers[1].Name != "s2" {
		t.Fatalf("offers = %v", offers)
	}

	ms[0].Withdraw("OrderService")
	settle(clk, 2)
	offers = ms[2].OffersOf("OrderService")
	if len(offers) != 1 || offers[0].Name != "s2" {
		t.Fatalf("after withdraw, offers = %v", offers)
	}
}

func TestUpdatedEventOnServiceChange(t *testing.T) {
	clk, _, ms := testCluster(t, 2)
	settle(clk, 3)
	var mu sync.Mutex
	updated := false
	ms[1].OnEvent(func(ev Event) {
		if ev.Kind == EventUpdated && ev.Member.Name == "s1" {
			mu.Lock()
			updated = true
			mu.Unlock()
		}
	})
	ms[0].Advertise("X")
	settle(clk, 2)
	mu.Lock()
	defer mu.Unlock()
	if !updated {
		t.Fatal("no EventUpdated after Advertise")
	}
}

func TestLossyBusStillConverges(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, 7)
	bus.SetLossRate(0.3)
	cfg := Config{Name: "c", HeartbeatInterval: 100 * time.Millisecond, FailureTimeout: 800 * time.Millisecond}
	var ms []*Member
	for i := 1; i <= 3; i++ {
		m := NewMember(cfg, clk, bus, MemberInfo{Name: fmt.Sprintf("s%d", i), Machine: fmt.Sprintf("m%d", i)})
		ms = append(ms, m)
		m.Start()
		defer m.Stop()
	}
	settle(clk, 10)
	for _, m := range ms {
		if len(m.Alive()) != 3 {
			t.Fatalf("%s sees %d, want 3 despite 30%% loss", m.Self().Name, len(m.Alive()))
		}
	}
}

func TestAlivePeersExcludesSelf(t *testing.T) {
	clk, _, ms := testCluster(t, 3)
	settle(clk, 3)
	peers := ms[0].AlivePeers()
	if len(peers) != 2 {
		t.Fatalf("peers = %d, want 2", len(peers))
	}
	for _, p := range peers {
		if p.Name == "s1" {
			t.Fatal("AlivePeers contains self")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Name: "x"}
	cfg.fillDefaults()
	if cfg.HeartbeatInterval <= 0 || cfg.FailureTimeout <= cfg.HeartbeatInterval {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	d := DefaultConfig("y")
	if d.Name != "y" || d.FailureTimeout <= d.HeartbeatInterval {
		t.Fatalf("DefaultConfig: %+v", d)
	}
}

// --- Node manager --------------------------------------------------------

func TestNodeManagerRestartsFailedServer(t *testing.T) {
	clk, _, ms := testCluster(t, 3)
	settle(clk, 3)

	var mu sync.Mutex
	var restarted []string
	nm := NewNodeManager(clk, 200*time.Millisecond, func(info MemberInfo) {
		mu.Lock()
		restarted = append(restarted, info.Name)
		mu.Unlock()
	})
	nm.Watch(ms[0])
	defer nm.Stop()

	ms[1].Stop()
	settle(clk, 10)

	mu.Lock()
	defer mu.Unlock()
	if len(restarted) != 1 || restarted[0] != "s2" {
		t.Fatalf("restarted = %v, want [s2]", restarted)
	}
	if nm.Restarts("s2") != 1 {
		t.Fatalf("Restarts = %d", nm.Restarts("s2"))
	}
}

func TestNodeManagerCancelsOnRejoin(t *testing.T) {
	clk, _, ms := testCluster(t, 2)
	settle(clk, 3)

	var mu sync.Mutex
	restarts := 0
	nm := NewNodeManager(clk, 10*time.Second, func(MemberInfo) {
		mu.Lock()
		restarts++
		mu.Unlock()
	})
	nm.Watch(ms[0])
	defer nm.Stop()

	// s2 "freezes": stops heartbeating long enough to be declared failed,
	// then recovers before the restart delay expires.
	ms[1].Stop()
	settle(clk, 6)
	ms[1].Start()
	settle(clk, 3)

	clk.Advance(20 * time.Second) // past the restart delay
	time.Sleep(5 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if restarts != 0 {
		t.Fatalf("restart fired despite rejoin, restarts=%d", restarts)
	}
}

func TestNodeManagerStopCancelsPending(t *testing.T) {
	clk, _, ms := testCluster(t, 2)
	settle(clk, 3)
	fired := false
	nm := NewNodeManager(clk, time.Second, func(MemberInfo) { fired = true })
	nm.Watch(ms[0])
	ms[1].Stop()
	settle(clk, 6)
	nm.Stop()
	clk.Advance(5 * time.Second)
	time.Sleep(5 * time.Millisecond)
	if fired {
		t.Fatal("restart fired after Stop")
	}
}

func TestMemberInfoEncodeDecodeProperty(t *testing.T) {
	f := func(name, addr, machine, group string, prefs, svcs []string, inc uint64) bool {
		in := MemberInfo{
			Name: name, Addr: addr, Machine: machine, ReplicationGroup: group,
			PreferredSecondaryGroups: prefs, Services: svcs, Incarnation: inc,
		}
		out, err := decodeMemberInfo(in.encode())
		if err != nil {
			return false
		}
		return out.Name == in.Name && out.Addr == in.Addr && out.Machine == in.Machine &&
			out.ReplicationGroup == in.ReplicationGroup &&
			equalStrings(out.PreferredSecondaryGroups, in.PreferredSecondaryGroups) &&
			equalStrings(out.Services, in.Services) && out.Incarnation == in.Incarnation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOffersServiceAndClone(t *testing.T) {
	m := MemberInfo{Name: "s", Services: []string{"a", "b"}}
	if !m.OffersService("a") || m.OffersService("z") {
		t.Fatal("OffersService wrong")
	}
	c := m.clone()
	c.Services[0] = "mutated"
	if m.Services[0] != "a" {
		t.Fatal("clone aliases Services")
	}
}

// --- event-driven join ------------------------------------------------------

// joinCounter records, per observing member, how many EventJoined it fired
// for each peer name.
type joinCounter struct {
	mu    sync.Mutex
	joins map[string]map[string]int // observer -> peer -> count
}

func (jc *joinCounter) watch(m *Member) {
	observer := m.Name()
	m.OnEvent(func(ev Event) {
		if ev.Kind != EventJoined {
			return
		}
		jc.mu.Lock()
		defer jc.mu.Unlock()
		if jc.joins == nil {
			jc.joins = make(map[string]map[string]int)
		}
		if jc.joins[observer] == nil {
			jc.joins[observer] = make(map[string]int)
		}
		jc.joins[observer][ev.Member.Name]++
	})
}

func (jc *joinCounter) count(observer, peer string) int {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	return jc.joins[observer][peer]
}

// startStaggered starts n members one after another on one lossless bus
// without ever advancing the clock.
func startStaggered(t *testing.T, n int) (*gossip.InMemory, []*Member, *joinCounter) {
	t.Helper()
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, 1)
	cfg := Config{Name: "c", HeartbeatInterval: 100 * time.Millisecond, FailureTimeout: 350 * time.Millisecond}
	ms, jc := startStaggeredOn(t, clk, bus, cfg, n)
	return bus, ms, jc
}

// startStaggeredOn starts n members one after another on the given bus,
// each advertising a service once started (the order wls.newServer uses:
// Start, then deploy).
func startStaggeredOn(t *testing.T, clk vclock.Clock, bus gossip.Bus, cfg Config, n int) ([]*Member, *joinCounter) {
	t.Helper()
	jc := &joinCounter{}
	var ms []*Member
	for i := 1; i <= n; i++ {
		m := NewMember(cfg, clk, bus, MemberInfo{Name: fmt.Sprintf("s%d", i), Machine: fmt.Sprintf("m%d", i)})
		jc.watch(m)
		ms = append(ms, m)
		m.Start()
		m.Advertise("svc")
		t.Cleanup(m.Stop)
	}
	return ms, jc
}

// requireFullViews fails unless every member sees all of ms, each offering
// "svc".
func requireFullViews(t *testing.T, ms []*Member) {
	t.Helper()
	for _, m := range ms {
		if got := len(m.Alive()); got != len(ms) {
			t.Fatalf("%s sees %d members, want %d", m.Name(), got, len(ms))
		}
		if got := len(m.OffersOf("svc")); got != len(ms) {
			t.Fatalf("%s sees %d offers of svc, want %d", m.Name(), got, len(ms))
		}
	}
}

// A joiner's announcement is answered: eight members started one after
// another have full views — services included — with the clock never
// advanced, every peer fired exactly one EventJoined per other member, and
// the exchange has ended (a second look publishes nothing more).
func TestJoinConvergesWithoutAdvance(t *testing.T) {
	const n = 8
	bus, ms, jc := startStaggered(t, n)
	requireFullViews(t, ms)
	for _, a := range ms {
		for _, b := range ms {
			if a == b {
				continue
			}
			if got := jc.count(a.Name(), b.Name()); got != 1 {
				t.Fatalf("%s fired %d EventJoined for %s, want 1", a.Name(), got, b.Name())
			}
		}
	}
	// A joiner with k ≥ 1 peers up publishes its announcement, one heartbeat
	// answering its peers' answers, and its Advertise beat; each peer
	// publishes one answer: k+3 per join, and 2 for the first server.
	published, _ := bus.Stats()
	if want := int64(n*(n-1)/2 + 3*(n-1) + 2); published != want {
		t.Fatalf("cold boot of %d published %d heartbeats, want %d", n, published, want)
	}
	requireFullViews(t, ms)
	if again, _ := bus.Stats(); again != published {
		t.Fatalf("join exchange did not end: %d published, then %d", published, again)
	}
}

// A crashed server that comes back as a new process (fresh Member, higher
// incarnation) has the full view when Start returns, and each peer fires
// one EventJoined for it — the clock still never advanced.
func TestRestartRejoinsWithoutAdvance(t *testing.T) {
	bus, ms, jc := startStaggered(t, 4)
	old := ms[1]
	old.Stop()
	before, _ := bus.Stats()

	self := old.Self()
	reborn := NewMember(old.Config(), old.Clock(), bus, MemberInfo{
		Name: self.Name, Machine: self.Machine, Incarnation: self.Incarnation,
	})
	reborn.Start()
	reborn.Advertise("svc")
	t.Cleanup(reborn.Stop)
	ms[1] = reborn

	requireFullViews(t, ms)
	for i, m := range ms {
		if i == 1 {
			continue
		}
		if got := jc.count(m.Name(), self.Name); got != 2 { // first boot + this restart
			t.Fatalf("%s fired %d EventJoined for %s over boot and restart, want 2", m.Name(), got, self.Name)
		}
		if info, _ := m.Lookup(self.Name); info.Incarnation != self.Incarnation+1 {
			t.Fatalf("%s holds incarnation %d of %s, want %d", m.Name(), info.Incarnation, self.Name, self.Incarnation+1)
		}
	}
	after, _ := bus.Stats()
	if got, want := after-before, int64(3+3); got != want {
		t.Fatalf("rejoin into 3 peers published %d heartbeats, want %d", got, want)
	}
}

// Half of all deliveries lost: answers get lost like any other datagram, the
// periodic beat repairs that, and views — once full — stay full (a long
// failure timeout keeps loss from being mistaken for death).
func TestJoinUnderHalfLossConvergesAndHolds(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, 11)
	bus.SetLossRate(0.5)
	cfg := Config{Name: "c", HeartbeatInterval: 100 * time.Millisecond, FailureTimeout: 5 * time.Second}
	ms, _ := startStaggeredOn(t, clk, bus, cfg, 6)
	full := func() bool {
		for _, m := range ms {
			if len(m.OffersOf("svc")) != len(ms) {
				return false
			}
		}
		return true
	}
	rounds := 0
	for ; !full() && rounds < 20; rounds++ {
		clk.Advance(cfg.HeartbeatInterval)
	}
	if !full() {
		t.Fatalf("views not full after %d rounds at 50%% loss", rounds)
	}
	for i := 0; i < 20; i++ {
		clk.Advance(cfg.HeartbeatInterval)
		if !full() {
			t.Fatalf("views diverged %d rounds after converging", i+1)
		}
	}
	// The exchange stays bounded under loss too: at most one answer per
	// (member, peer) pair on top of the periodic beats.
	published, _ := bus.Stats()
	n := int64(len(ms))
	if max := n*int64(rounds+20+2) + n*(n-1); published > max {
		t.Fatalf("published %d heartbeats over %d rounds, want at most %d", published, rounds+20, max)
	}
}

// Start racing Stop must leave neither a data race on the subscription nor
// a subscription behind.
func TestStartStopRace(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, 1)
	m := NewMember(Config{Name: "c"}, clk, bus, MemberInfo{Name: "s1"})
	for i := 0; i < 200; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); m.Start() }()
		go func() { defer wg.Done(); m.Stop() }()
		wg.Wait()
		m.Stop()
		if n := bus.Subscribers(m.topic); n != 0 {
			t.Fatalf("iteration %d: %d subscriptions left after Stop", i, n)
		}
	}
}

// TestDecodeMembersRefusesALyingCount feeds DecodeMembers a short body
// whose count is negative or far beyond what its bytes hold: it must
// fail, not panic, and size nothing by the count.
func TestDecodeMembersRefusesALyingCount(t *testing.T) {
	for _, n := range []int{-1, 1 << 20, 1 << 40} {
		e := wire.NewEncoder(8)
		e.Int(n)
		e.Byte(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ms, err := DecodeMembers(e.Bytes())
		runtime.ReadMemStats(&after)
		if err == nil || ms != nil {
			t.Fatalf("count %d: got %d members, %v; want an error", n, len(ms), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("count %d: allocated %d bytes", n, got)
		}
	}
}

// --- steady state -------------------------------------------------------

// A converged cluster's beats repeat bytes every receiver has decoded
// before, so a steady interval costs a member only the timer of its next
// tick; and the peers stay alive far past FailureTimeout on beats that
// were never decoded again.
func TestSteadyHeartbeatAllocsPerMember(t *testing.T) {
	clk, _, ms := testCluster(t, 3)
	settle(clk, 3)
	var failed atomic.Int64
	for _, m := range ms {
		m.OnEvent(func(ev Event) {
			if ev.Kind == EventFailed {
				failed.Add(1)
			}
		})
	}
	const intervals = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clk.Advance(100 * time.Millisecond)
	// The best of three windows: a stray malloc of a goroutine another
	// test left behind lands in one window, an allocation per beat in all.
	perMember := math.Inf(1)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < intervals; i++ {
			clk.Advance(100 * time.Millisecond)
		}
		runtime.ReadMemStats(&after)
		perMember = min(perMember, float64(after.Mallocs-before.Mallocs)/float64(intervals*len(ms)))
	}
	t.Logf("%.3f allocations per member per interval", perMember)
	if perMember > 1 {
		t.Fatalf("%.3f allocations per member per interval, want at most 1 (the next tick's timer)", perMember)
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d EventFailed over %d steady intervals", n, 3*intervals)
	}
	for _, m := range ms {
		if got := len(m.Alive()); got != len(ms) {
			t.Fatalf("%s sees %d members after %d steady intervals, want %d", m.Name(), got, 3*intervals, len(ms))
		}
		m.mu.Lock()
		_, self := m.peers[m.self.Name]
		m.mu.Unlock()
		if self {
			t.Fatalf("%s recorded itself as a peer", m.Name())
		}
	}
}

// The byte-compare skips only a live peer's repeated beat: a peer the
// sweep failed is re-admitted by the very bytes it beat before, a new
// service list at the same incarnation is still an update, and no beat
// in a member's own name — its own or another's — makes it a peer.
func TestRepeatedBytesStillCarryEvents(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, 1)
	cfg := Config{Name: "c", HeartbeatInterval: 100 * time.Millisecond, FailureTimeout: 350 * time.Millisecond}
	m := NewMember(cfg, clk, bus, MemberInfo{Name: "s1", Machine: "m1"})
	var mu sync.Mutex
	heard := map[EventKind]int{}
	m.OnEvent(func(ev Event) {
		if ev.Member.Name == "g" {
			mu.Lock()
			heard[ev.Kind]++
			mu.Unlock()
		}
	})
	m.Start()
	defer m.Stop()
	events := func(k EventKind) int {
		mu.Lock()
		defer mu.Unlock()
		return heard[k]
	}
	ghost := MemberInfo{Name: "g", Machine: "m2", Incarnation: 1}
	beat := ghost.encode()
	// beatDraws publishes one ghost beat and returns how many heartbeats
	// m published in answer.
	beatDraws := func(payload []byte) int64 {
		before, _ := bus.Stats()
		bus.Publish(gossip.Message{Topic: m.topic, From: "g", Payload: payload})
		after, _ := bus.Stats()
		return after - before - 1
	}

	if n := beatDraws(beat); n != 1 || events(EventJoined) != 1 {
		t.Fatalf("first beat: %d answers, %d joins; want 1 and 1", n, events(EventJoined))
	}
	if n := beatDraws(slices.Clone(beat)); n != 0 || events(EventJoined) != 1 {
		t.Fatalf("a repeated beat drew %d answers and made %d joins; want 0 and 1", n, events(EventJoined))
	}
	clk.Advance(500 * time.Millisecond) // past FailureTimeout with no ghost beat
	if events(EventFailed) != 1 || len(m.Alive()) != 1 {
		t.Fatalf("silent peer: %d failures, %d alive; want 1 and 1", events(EventFailed), len(m.Alive()))
	}
	if n := beatDraws(slices.Clone(beat)); n != 1 || events(EventJoined) != 2 || len(m.Alive()) != 2 {
		t.Fatalf("failed peer heard again with the same bytes: %d answers, %d joins, %d alive; want 1, 2, 2",
			n, events(EventJoined), len(m.Alive()))
	}

	m.mu.Lock()
	version := m.version
	m.mu.Unlock()
	ghost.Services = []string{"svc"}
	if n := beatDraws(ghost.encode()); n != 0 || events(EventUpdated) != 1 {
		t.Fatalf("new service list: %d answers, %d updates; want 0 and 1", n, events(EventUpdated))
	}
	m.mu.Lock()
	bumped := m.version > version
	m.mu.Unlock()
	if !bumped || len(m.OffersOf("svc")) != 1 {
		t.Fatalf("new service list: version bumped %v, %d offers of svc; want true and 1", bumped, len(m.OffersOf("svc")))
	}

	impostor := m.Self()
	impostor.Incarnation++
	beatDraws(impostor.encode())
	m.mu.Lock()
	_, self := m.peers["s1"]
	m.mu.Unlock()
	if self {
		t.Fatal("a beat in the member's own name made it a peer")
	}
}

// restartingBus counts one member's heartbeats and, once armed, stops and
// starts that member from inside the Publish of its next beat.
type restartingBus struct {
	gossip.Bus
	m     *Member
	arm   bool
	beats int
}

func (b *restartingBus) Publish(msg gossip.Message) {
	b.beats++
	if b.arm {
		b.arm = false
		b.m.Stop()
		b.m.Start()
	}
	b.Bus.Publish(msg)
}

// TestRestartInsideATickKeepsOneChain: a member stopped and started inside
// one of its ticks beats once an interval afterwards, and nothing stays
// pending after its final Stop.
func TestRestartInsideATickKeepsOneChain(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	bus := &restartingBus{Bus: gossip.NewInMemory(clk, 1)}
	cfg := Config{Name: "c", HeartbeatInterval: 100 * time.Millisecond, FailureTimeout: 350 * time.Millisecond}
	m := NewMember(cfg, clk, bus, MemberInfo{Name: "s1", Machine: "m1"})
	bus.m = m
	m.Start()
	clk.Advance(300 * time.Millisecond)
	bus.arm = true
	clk.Advance(100 * time.Millisecond) // this tick's beat restarts m
	if bus.arm {
		t.Fatal("no beat in the armed tick")
	}
	if got := clk.PendingTimers(); got != 1 {
		t.Errorf("%d timers pending after a restart inside a tick, want 1", got)
	}
	bus.beats = 0
	clk.Advance(time.Second)
	if bus.beats != 10 {
		t.Errorf("%d beats in a second at a 100 ms interval, want 10", bus.beats)
	}
	m.Stop()
	if got := clk.PendingTimers(); got != 0 {
		t.Errorf("%d timers pending after Stop", got)
	}
}
