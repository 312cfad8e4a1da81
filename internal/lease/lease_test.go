package lease_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/lease"
	"wls/internal/simtest"
	"wls/internal/store"
	"wls/internal/vclock"
)

func newManager(clk vclock.Clock, ttl time.Duration) (*lease.Manager, *store.Store) {
	tbl := store.New("leasedb", clk)
	m := lease.NewManager(clk, lease.AlwaysLeader(), tbl, ttl)
	return m, tbl
}

func TestAcquireFreeLease(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	g, err := m.Acquire("queue-1", "server-1", lease.Pull)
	if err != nil {
		t.Fatal(err)
	}
	if g.Owner != "server-1" || g.Epoch != 1 {
		t.Fatalf("grant = %+v", g)
	}
	owner, epoch := m.OwnerOf("queue-1")
	if owner != "server-1" || epoch != 1 {
		t.Fatalf("owner = %s epoch = %d", owner, epoch)
	}
}

func TestAcquireHeldLeaseFails(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	m.Acquire("q", "server-1", lease.Pull)
	_, err := m.Acquire("q", "server-2", lease.Pull)
	if !errors.Is(err, lease.ErrHeld) {
		t.Fatalf("want ErrHeld, got %v", err)
	}
}

func TestExpiredLeaseGrantableWithNewEpoch(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	g1, _ := m.Acquire("q", "server-1", lease.Pull)
	clk.Advance(2 * time.Second)
	g2, err := m.Acquire("q", "server-2", lease.Pull)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Epoch <= g1.Epoch {
		t.Fatalf("epoch must increase on ownership change: %d -> %d", g1.Epoch, g2.Epoch)
	}
}

func TestRenewExtendsWithoutEpochChange(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	g1, _ := m.Acquire("q", "server-1", lease.Pull)
	clk.Advance(500 * time.Millisecond)
	g2, err := m.Renew("q", "server-1")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Epoch != g1.Epoch {
		t.Fatal("renew must not change the epoch")
	}
	if !g2.Expires.After(g1.Expires) {
		t.Fatal("renew must extend expiry")
	}
}

func TestRenewByNonOwnerFails(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	m.Acquire("q", "server-1", lease.Pull)
	if _, err := m.Renew("q", "server-2"); !errors.Is(err, lease.ErrNotHeld) {
		t.Fatalf("want ErrNotHeld, got %v", err)
	}
}

func TestRenewAfterExpiryFails(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	m.Acquire("q", "server-1", lease.Pull)
	clk.Advance(3 * time.Second)
	if _, err := m.Renew("q", "server-1"); !errors.Is(err, lease.ErrNotHeld) {
		t.Fatalf("want ErrNotHeld after expiry, got %v", err)
	}
}

func TestReleaseFreesImmediately(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	m.Acquire("q", "server-1", lease.Pull)
	if err := m.Release("q", "server-1"); err != nil {
		t.Fatal(err)
	}
	if owner, _ := m.OwnerOf("q"); owner != "" {
		t.Fatalf("owner after release = %s", owner)
	}
	if _, err := m.Acquire("q", "server-2", lease.Pull); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestNonLeaderRefuses(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	tbl := store.New("leasedb", clk)
	m := lease.NewManager(clk, follower{}, tbl, time.Second)
	if _, err := m.Acquire("q", "s", lease.Pull); !errors.Is(err, lease.ErrNotLeader) {
		t.Fatalf("want ErrNotLeader, got %v", err)
	}
}

type follower struct{}

func (follower) IsLeader() bool { return false }
func (follower) Term() uint64   { return 0 }

func TestPushLeaseExpiryNotifies(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	var expired atomic.Value
	m.OnExpired(func(g lease.Grant) { expired.Store(g) })
	m.Start()
	defer m.Stop()

	m.Acquire("jms-server", "server-1", lease.Push)
	clk.Advance(3 * time.Second) // no renewal → expire + sweep

	g, ok := expired.Load().(lease.Grant)
	if !ok {
		t.Fatal("no expiry notification for push lease")
	}
	if g.Service != "jms-server" || g.Owner != "server-1" {
		t.Fatalf("grant = %+v", g)
	}
	// The lease is revoked: free for re-grant with a higher epoch.
	owner, _ := m.OwnerOf("jms-server")
	if owner != "" {
		t.Fatalf("owner after revoke = %s", owner)
	}
}

func TestPullLeaseExpiryDoesNotNotify(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m, _ := newManager(clk, time.Second)
	var fired atomic.Int64
	m.OnExpired(func(lease.Grant) { fired.Add(1) })
	m.Start()
	defer m.Stop()
	m.Acquire("profile-u1", "server-1", lease.Pull)
	clk.Advance(5 * time.Second)
	if fired.Load() != 0 {
		t.Fatal("pull lease expiry must not notify")
	}
}

func TestCreationOnlyOnceAcrossManagers(t *testing.T) {
	// Two manager replicas sharing one persistent table: both believing
	// they lead (the worst case during a leadership handoff) cannot both
	// grant the same service — the table's version check serializes them.
	clk := vclock.NewVirtualAtZero()
	tbl := store.New("leasedb", clk)
	m1 := lease.NewManager(clk, lease.AlwaysLeader(), tbl, time.Second)
	m2 := lease.NewManager(clk, lease.AlwaysLeader(), tbl, time.Second)

	_, err1 := m1.Acquire("q", "server-1", lease.Pull)
	_, err2 := m2.Acquire("q", "server-2", lease.Pull)
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one acquire must win: err1=%v err2=%v", err1, err2)
	}
}

func TestManagerFailoverPreservesTable(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	tbl := store.New("leasedb", clk)
	m1 := lease.NewManager(clk, lease.AlwaysLeader(), tbl, time.Second)
	g, _ := m1.Acquire("q", "server-1", lease.Pull)

	// New manager replica (new leader) sees the same grant.
	m2 := lease.NewManager(clk, lease.AlwaysLeader(), tbl, time.Second)
	owner, epoch := m2.OwnerOf("q")
	if owner != "server-1" || epoch != g.Epoch {
		t.Fatalf("new manager lost the table: %s/%d", owner, epoch)
	}
	// And the holder can renew against the new manager.
	if _, err := m2.Renew("q", "server-1"); err != nil {
		t.Fatal(err)
	}
}

// --- Holder over RMI --------------------------------------------------------

func TestHolderAcquireRenewLoop(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	tbl := store.New("leasedb", f.Clock)
	mgr := lease.NewManager(f.Clock, lease.AlwaysLeader(), tbl, time.Second)
	f.Servers[0].Registry.Register(mgr.RMIService())
	f.Settle(2)

	h := lease.NewHolder(f.Clock, f.Servers[1].Endpoint, "q", "server-2", lease.Pull,
		f.Servers[0].Endpoint.Addr())
	if err := h.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !h.Held() || h.Epoch() != 1 {
		t.Fatalf("held=%v epoch=%d", h.Held(), h.Epoch())
	}
	// Auto-renew keeps it held far past the original TTL.
	for i := 0; i < 10; i++ {
		f.VClock.Advance(400 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
	if !h.Held() {
		t.Fatal("auto-renew failed to keep the lease")
	}
	if err := h.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	if owner, _ := mgr.OwnerOf("q"); owner != "" {
		t.Fatal("release did not free the lease")
	}
}

func TestHolderLosesLeaseWhenManagerUnreachable(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	tbl := store.New("leasedb", f.Clock)
	mgr := lease.NewManager(f.Clock, lease.AlwaysLeader(), tbl, time.Second)
	f.Servers[0].Registry.Register(mgr.RMIService())
	f.Settle(2)

	h := lease.NewHolder(f.Clock, f.Servers[1].Endpoint, "q", "server-2", lease.Pull,
		f.Servers[0].Endpoint.Addr())
	if err := h.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var lost atomic.Bool
	h.OnLost(func() { lost.Store(true) })

	f.Crash("server-1") // lease manager gone
	for i := 0; i < 20 && !lost.Load(); i++ {
		f.VClock.Advance(400 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
	if !lost.Load() {
		t.Fatal("holder never noticed lease loss")
	}
	if h.Held() {
		t.Fatal("holder still claims the lease")
	}
}

// TestHolderReacquiredOnLossKeepsRenewing: an owner that takes its lease
// back from inside the loss callback, while the renewal that lost it is
// still running, keeps renewing the new lease.
func TestHolderReacquiredOnLossKeepsRenewing(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	tbl := store.New("leasedb", f.Clock)
	mgr := lease.NewManager(f.Clock, lease.AlwaysLeader(), tbl, time.Second)
	f.Servers[0].Registry.Register(mgr.RMIService())
	f.Settle(2)

	h := lease.NewHolder(f.Clock, f.Servers[1].Endpoint, "q", "server-2", lease.Pull,
		f.Servers[0].Endpoint.Addr())
	defer h.Stop()
	if err := h.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var reacquired atomic.Bool
	h.OnLost(func() {
		if err := mgr.Release("q", "other"); err != nil {
			t.Error(err)
		}
		if err := h.Acquire(context.Background()); err != nil {
			t.Error(err)
		}
		reacquired.Store(true)
	})
	// Ownership moves away, so the next renewal loses the lease.
	if err := mgr.Release("q", "server-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Acquire("q", "other", lease.Pull); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && !reacquired.Load(); i++ {
		f.VClock.Advance(200 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
	if !reacquired.Load() {
		t.Fatal("the renewal never lost the lease")
	}
	for i := 0; i < 10; i++ {
		f.VClock.Advance(400 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
	if !h.Held() {
		t.Fatal("the lease taken back on loss was never renewed")
	}
}

func TestHolderProbesForLeader(t *testing.T) {
	// Manager replicas on two servers; only server-2's replica leads.
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	tbl := store.New("leasedb", f.Clock)
	mFollower := lease.NewManager(f.Clock, follower{}, tbl, time.Second)
	mLeader := lease.NewManager(f.Clock, lease.AlwaysLeader(), tbl, time.Second)
	f.Servers[0].Registry.Register(mFollower.RMIService())
	f.Servers[1].Registry.Register(mLeader.RMIService())
	f.Settle(2)

	h := lease.NewHolder(f.Clock, f.Servers[2].Endpoint, "q", "server-3", lease.Pull,
		f.Servers[0].Endpoint.Addr(), f.Servers[1].Endpoint.Addr())
	if err := h.Acquire(context.Background()); err != nil {
		t.Fatalf("holder failed to find the leader: %v", err)
	}
	if owner, _ := mLeader.OwnerOf("q"); owner != "server-3" {
		t.Fatalf("owner = %s", owner)
	}
}

func TestTwoHoldersOneWins(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	tbl := store.New("leasedb", f.Clock)
	mgr := lease.NewManager(f.Clock, lease.AlwaysLeader(), tbl, time.Second)
	f.Servers[0].Registry.Register(mgr.RMIService())
	f.Settle(2)

	h1 := lease.NewHolder(f.Clock, f.Servers[1].Endpoint, "q", "server-2", lease.Pull, f.Servers[0].Endpoint.Addr())
	h2 := lease.NewHolder(f.Clock, f.Servers[2].Endpoint, "q", "server-3", lease.Pull, f.Servers[0].Endpoint.Addr())
	err1 := h1.Acquire(context.Background())
	err2 := h2.Acquire(context.Background())
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one holder must win: %v / %v", err1, err2)
	}
}
