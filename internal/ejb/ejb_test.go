package ejb_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/cluster"
	"wls/internal/ejb"
	"wls/internal/partition"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/simtest"
	"wls/internal/store"
	"wls/internal/tx"
	"wls/internal/wire"
)

// ejbFixture is a cluster of containers over one shared backend database.
type ejbFixture struct {
	f          *simtest.Fixture
	db         *store.Store
	containers []*ejb.Container
	txms       []*tx.Manager // each container's server's
}

func newEJBFixture(t *testing.T, servers int) *ejbFixture {
	t.Helper()
	f := simtest.New(simtest.Options{Servers: servers})
	t.Cleanup(f.Stop)
	db := store.New("backend", f.Clock)
	var cs []*ejb.Container
	var txms []*tx.Manager
	for _, s := range f.Servers {
		txms = append(txms, tx.NewManager(s.Name, f.Clock, nil, s.Metrics))
		cs = append(cs, ejb.NewContainer(s.Registry, db, f.Bus))
	}
	return &ejbFixture{f: f, db: db, containers: cs, txms: txms}
}

// --- Stateless ---------------------------------------------------------------

func deployCounter(fx *ejbFixture) {
	for _, c := range fx.containers {
		c := c
		c.DeployStateless(ejb.StatelessSpec{
			Name: "Counter",
			Methods: map[string]ejb.StatelessMethod{
				"inc": func(ctx context.Context, call *rmi.Call) ([]byte, error) {
					return []byte(c.ServerName()), nil
				},
			},
		})
	}
	fx.f.Settle(2)
}

func TestStatelessCallsAreCounted(t *testing.T) {
	fx := newEJBFixture(t, 1)
	deployCounter(fx)
	stub := fx.containers[0].StatelessStub("Counter")
	for i := 0; i < 40; i++ {
		if _, err := stub.Invoke(context.Background(), "inc", nil); err != nil {
			t.Fatal(err)
		}
	}
	if fx.f.Servers[0].Metrics.Counter("ejb.stateless.calls").Value() != 40 {
		t.Fatal("call counter wrong")
	}
}

func TestStatelessClusterSpread(t *testing.T) {
	fx := newEJBFixture(t, 3)
	deployCounter(fx)
	stub := fx.containers[0].StatelessStub("Counter", rmi.WithPolicy(rmi.NewRoundRobin()))
	servers := map[string]bool{}
	for i := 0; i < 9; i++ {
		res, err := stub.Invoke(context.Background(), "inc", nil)
		if err != nil {
			t.Fatal(err)
		}
		servers[string(res.Body)] = true
	}
	if len(servers) != 3 {
		t.Fatalf("spread over %d servers, want 3", len(servers))
	}
}

// --- Stateful ------------------------------------------------------------------

func deployCart(fx *ejbFixture, policy ejb.DeltaPolicy) *ejb.StatefulHome {
	var home *ejb.StatefulHome
	for _, c := range fx.containers {
		h := c.DeployStateful(ejb.StatefulSpec{
			Name:   "Cart",
			Deltas: policy,
			Methods: map[string]ejb.StatefulMethod{
				"add": func(sc *ejb.StatefulCtx, args []byte) ([]byte, error) {
					item := string(args)
					n, _ := strconv.Atoi(sc.Get("count"))
					sc.Set("count", strconv.Itoa(n+1))
					sc.Set("item-"+strconv.Itoa(n), item)
					return []byte(strconv.Itoa(n + 1)), nil
				},
				"count": func(sc *ejb.StatefulCtx, args []byte) ([]byte, error) {
					return []byte(sc.Get("count")), nil
				},
			},
		})
		if home == nil {
			home = h
		}
	}
	fx.f.Settle(2)
	return home
}

// TestManagersPlaceOnTheServiceRing builds a bare servlet engine and a
// stateful bean on every server: each one's replicated manager places a
// new record's secondary by walking a ring over every server that offers
// its service — the first member after the primary on the record's walk.
func TestManagersPlaceOnTheServiceRing(t *testing.T) {
	fx := newEJBFixture(t, 4)
	var engines []*servlet.Engine
	var names []string
	for _, s := range fx.f.Servers {
		e := servlet.NewEngine(s.Registry, servlet.Config{})
		e.Handle("/", func(*servlet.Request) servlet.Response { return servlet.Response{} })
		engines = append(engines, e)
		names = append(names, s.Name)
	}
	home := deployCart(fx, ejb.DeltaPerTx)
	ring := partition.New(partition.Config{}, names)
	walked := func(id, primary string) (sec string) {
		ring.Walk(id, func(m string) bool {
			sec = m
			return m == primary
		})
		return sec
	}
	if got := engines[0].Sessions().Partitions().Current().Ring.Members(); !slices.Equal(got, names) {
		t.Fatalf("the engine's ring holds %v, want %v", got, names)
	}
	for i := 0; i < 16; i++ {
		c, err := servlet.DecodeCookie(engines[0].ServeCtx(context.Background(), "/", "", nil).Cookie)
		if err != nil || c.Secondary != walked(c.ID, c.Primary) {
			t.Fatalf("session %d: pair %s/%s, the ring walks to %s (err %v)", i, c.Primary, c.Secondary, walked(c.ID, c.Primary), err)
		}
		h, err := home.Create(context.Background())
		if err != nil || h.Secondary() != walked(h.ID(), h.Primary()) {
			t.Fatalf("bean %d: pair %s/%s, the ring walks to %s (err %v)", i, h.Primary(), h.Secondary(), walked(h.ID(), h.Primary()), err)
		}
	}
}

func TestStatefulConversationKeepsState(t *testing.T) {
	fx := newEJBFixture(t, 3)
	home := deployCart(fx, ejb.DeltaPerTx)
	h, err := home.Create(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		out, err := h.Invoke(context.Background(), "add", []byte(fmt.Sprintf("item%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != strconv.Itoa(i) {
			t.Fatalf("add #%d returned %q", i, out)
		}
	}
	out, err := h.Invoke(context.Background(), "count", nil)
	if err != nil || string(out) != "5" {
		t.Fatalf("count = %q err=%v", out, err)
	}
	if h.Secondary() == "" || h.Secondary() == h.Primary() {
		t.Fatalf("replication pair broken: %s/%s", h.Primary(), h.Secondary())
	}
}

// pinServer orders the named server first so tests control the primary.
type pinServer string

func (p pinServer) Order(_ context.Context, _ string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	out := make([]cluster.MemberInfo, 0, len(cands))
	for _, c := range cands {
		if c.Name == string(p) {
			out = append(out, c)
		}
	}
	for _, c := range cands {
		if c.Name != string(p) {
			out = append(out, c)
		}
	}
	return out
}

func TestStatefulFailoverToSecondary(t *testing.T) {
	fx := newEJBFixture(t, 3)
	home := deployCart(fx, ejb.DeltaPerTx)
	// The client lives on server-1; pin the conversation's primary to
	// server-2 so crashing the primary does not kill the client.
	h, err := home.Create(context.Background(), rmi.WithPolicy(pinServer("server-2")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.Invoke(context.Background(), "add", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	oldPrimary, oldSecondary := h.Primary(), h.Secondary()
	fx.f.Crash(oldPrimary)

	out, err := h.Invoke(context.Background(), "count", nil)
	if err != nil {
		t.Fatalf("failover invoke: %v", err)
	}
	if string(out) != "3" {
		t.Fatalf("state lost in failover: count = %q", out)
	}
	if h.Primary() != oldSecondary {
		t.Fatalf("handle not rewritten: primary = %s, want %s", h.Primary(), oldSecondary)
	}
	// The promoted primary recruited a fresh secondary.
	if h.Secondary() == "" || h.Secondary() == oldPrimary || h.Secondary() == h.Primary() {
		t.Fatalf("new secondary = %q", h.Secondary())
	}
	// And the conversation continues.
	if _, err := h.Invoke(context.Background(), "add", []byte("y")); err != nil {
		t.Fatal(err)
	}
}

// TestStatefulParallelInvokes shares one handle among four goroutines that
// each add 200 items at the primary: the container runs one invocation of
// a conversation at a time, so no read-modify-write is lost, and every
// delta reaches the secondary, which serves the full count after the
// primary dies.
func TestStatefulParallelInvokes(t *testing.T) {
	const workers, calls = 4, 200
	fx := newEJBFixture(t, 3)
	home := deployCart(fx, ejb.DeltaPerTx)
	h, err := home.Create(context.Background(), rmi.WithPolicy(pinServer("server-2")))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := h.Invoke(context.Background(), "add", []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	oldPrimary := h.Primary()
	fx.f.Crash(oldPrimary)
	out, err := h.Invoke(context.Background(), "count", nil)
	if err != nil {
		t.Fatalf("failover invoke: %v", err)
	}
	if string(out) != strconv.Itoa(workers*calls) {
		t.Fatalf("count through the promoted secondary = %q, want %d", out, workers*calls)
	}
	if h.Primary() == oldPrimary {
		t.Fatalf("handle still names the dead primary %s", oldPrimary)
	}
}

// TestStatefulIDsOutliveRestart creates a conversation, fails it over off
// a crashed server (not server-1, where the client lives), restarts that server with the bean redeployed and
// creates another there: the new one gets its own id, so its ships neither
// land on the first conversation's records nor are taken for stale, and
// each fails over to its own state.
func TestStatefulIDsOutliveRestart(t *testing.T) {
	ctx := context.Background()
	fx := newEJBFixture(t, 3)
	home := deployCart(fx, ejb.DeltaPerTx)
	add := func(h *ejb.Handle, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := h.Invoke(ctx, "add", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := func(h *ejb.Handle, want string) {
		t.Helper()
		if out, err := h.Invoke(ctx, "count", nil); err != nil || string(out) != want {
			t.Fatalf("%s count = %q, %v; want %s", h.ID(), out, err, want)
		}
	}

	first, err := home.Create(ctx, rmi.WithPolicy(pinServer("server-2")))
	if err != nil {
		t.Fatal(err)
	}
	add(first, 3)
	fx.f.Crash("server-2")
	count(first, "3") // promoted on its secondary

	s := fx.f.Restart("server-2")
	c := ejb.NewContainer(s.Registry, fx.db, fx.f.Bus)
	deployCart(&ejbFixture{f: fx.f, containers: []*ejb.Container{c}}, ejb.DeltaPerTx)
	second, err := home.Create(ctx, rmi.WithPolicy(pinServer("server-2")))
	if err != nil {
		t.Fatal(err)
	}
	if second.Primary() != "server-2" || second.ID() == first.ID() {
		t.Fatalf("conversation after restart: %s at %s, first was %s", second.ID(), second.Primary(), first.ID())
	}
	add(second, 1)
	count(first, "3")
	fx.f.Crash("server-2")
	count(second, "1")
	count(first, "3")
}

func TestStatefulRollbackAnomaly(t *testing.T) {
	// §3.2: "failure of the primary can result in unexpected roll back upon
	// failover to the secondary" — a delta that never shipped is lost.
	fx := newEJBFixture(t, 3)
	home := deployCart(fx, ejb.DeltaPerTx)
	h, err := home.Create(context.Background(), rmi.WithPolicy(pinServer("server-2")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke(context.Background(), "add", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// The primary will mutate memory but die before shipping the delta.
	primaryIdx := -1
	for i, s := range fx.f.Servers {
		if s.Name == h.Primary() {
			primaryIdx = i
		}
	}
	fx.containers[primaryIdx].StatefulStore("Cart").DropNextShips(1)
	if _, err := h.Invoke(context.Background(), "add", []byte("b")); err != nil {
		t.Fatal(err)
	}
	fx.f.Crash(h.Primary())

	out, err := h.Invoke(context.Background(), "count", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "1" {
		t.Fatalf("count = %q, want 1 (rolled back to last shipped boundary)", out)
	}
}

func TestStatefulDeltaPolicyCounts(t *testing.T) {
	// DeltaPerUpdate ships one delta per Set; DeltaPerTx one per method.
	countDeltas := func(policy ejb.DeltaPolicy) int64 {
		fx := newEJBFixture(t, 2)
		home := deployCart(fx, policy)
		h, err := home.Create(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := h.Invoke(context.Background(), "add", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		var total int64
		for _, s := range fx.f.Servers {
			total += s.Metrics.Counter("ejb.stateful.replica_updates").Value()
		}
		return total
	}
	perTx := countDeltas(ejb.DeltaPerTx)
	perUpdate := countDeltas(ejb.DeltaPerUpdate)
	// "add" does two Sets per call: per-update ships ~2x per-tx.
	if perUpdate < perTx*2-2 {
		t.Fatalf("per-update=%d per-tx=%d: expected roughly double", perUpdate, perTx)
	}
}

func TestStatefulPassivationAndReactivation(t *testing.T) {
	fx := newEJBFixture(t, 1)
	home := deployCart(fx, ejb.DeltaPerTx)
	var handles []*ejb.Handle
	for i := 0; i < 5; i++ {
		h, err := home.Create(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Invoke(context.Background(), "add", []byte("x")); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	ss := fx.containers[0].StatefulStore("Cart")
	if n := ss.PassivateIdle(2); n != 3 {
		t.Fatalf("passivated %d, want 3", n)
	}
	mem, paged := ss.Resident()
	if mem != 2 || paged != 3 {
		t.Fatalf("resident = %d/%d", mem, paged)
	}
	// A passivated conversation transparently reactivates.
	out, err := handles[0].Invoke(context.Background(), "count", nil)
	if err != nil || string(out) != "1" {
		t.Fatalf("reactivation: %q err=%v", out, err)
	}
}

func TestStatefulRemove(t *testing.T) {
	fx := newEJBFixture(t, 2)
	home := deployCart(fx, ejb.DeltaPerTx)
	h, err := home.Create(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Remove(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke(context.Background(), "count", nil); err == nil {
		t.Fatal("invoke after remove should fail")
	}
}

// --- Entity beans --------------------------------------------------------------

func seedAccount(fx *ejbFixture) {
	fx.db.Put("accounts", "a1", map[string]string{"balance": "100"})
}

func deployAccounts(fx *ejbFixture, mode ejb.ConsistencyMode, ttl time.Duration) []*ejb.EntityHome {
	var homes []*ejb.EntityHome
	for _, c := range fx.containers {
		homes = append(homes, c.DeployEntity(ejb.EntitySpec{
			Name: "Account", Table: "accounts", Mode: mode, TTL: ttl,
		}))
	}
	return homes
}

func TestEntityTTLStalenessWindow(t *testing.T) {
	fx := newEJBFixture(t, 2)
	seedAccount(fx)
	homes := deployAccounts(fx, ejb.EntityTTL, time.Second)

	f1, err := homes[0].FindReadOnly("a1")
	if err != nil || f1["balance"] != "100" {
		t.Fatalf("read: %v %v", f1, err)
	}
	// Server 2 updates through a transaction.
	txn := fx.txms[1].Begin(0)
	e, err := homes[1].Find(txn, "a1")
	if err != nil {
		t.Fatal(err)
	}
	e.Set("balance", "50")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// TTL mode: server 1 still sees the stale copy within its TTL...
	f1, _ = homes[0].FindReadOnly("a1")
	if f1["balance"] != "100" {
		t.Fatalf("expected stale read within TTL, got %v", f1["balance"])
	}
	// ...and fresh data after the TTL lapses.
	fx.f.VClock.Advance(2 * time.Second)
	f1, _ = homes[0].FindReadOnly("a1")
	if f1["balance"] != "50" {
		t.Fatalf("after TTL: %v", f1["balance"])
	}
}

func TestEntityFlushOnUpdatePropagates(t *testing.T) {
	fx := newEJBFixture(t, 2)
	seedAccount(fx)
	homes := deployAccounts(fx, ejb.EntityFlushOnUpdate, time.Hour)

	homes[0].FindReadOnly("a1") // warm server 1's cache
	txn := fx.txms[1].Begin(0)
	e, _ := homes[1].Find(txn, "a1")
	e.Set("balance", "50")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// The bean-level flush signal already invalidated server 1's copy.
	f1, _ := homes[0].FindReadOnly("a1")
	if f1["balance"] != "50" {
		t.Fatalf("flush-on-update missed: %v", f1["balance"])
	}
}

func TestEntityOptimisticConflict(t *testing.T) {
	fx := newEJBFixture(t, 2)
	seedAccount(fx)
	homes := deployAccounts(fx, ejb.EntityOptimistic, time.Hour)

	tx1 := fx.txms[0].Begin(0)
	tx2 := fx.txms[1].Begin(0)
	e1, err := homes[0].Find(tx1, "a1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := homes[1].Find(tx2, "a1")
	if err != nil {
		t.Fatal(err)
	}
	e1.Set("balance", "90")
	e2.Set("balance", "80")
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	err = tx2.Commit()
	if !errors.Is(err, tx.ErrAborted) {
		t.Fatalf("want concurrency abort, got %v", err)
	}
	row, _ := fx.db.Get("accounts", "a1")
	if row.Fields["balance"] != "90" {
		t.Fatalf("balance = %s", row.Fields["balance"])
	}
	if fx.db.Metrics().Counter("store.conflicts").Value() == 0 {
		t.Fatal("conflict not recorded as a concurrency exception")
	}
}

func TestEntityOptimisticNoDatabaseLocksHeld(t *testing.T) {
	// "this option can be used within a single transaction to increase
	// database concurrency, since no database locks are held": a reader in
	// another tx is never blocked while an optimistic tx is open.
	fx := newEJBFixture(t, 2)
	seedAccount(fx)
	homes := deployAccounts(fx, ejb.EntityOptimistic, time.Hour)

	tx1 := fx.txms[0].Begin(0)
	e1, _ := homes[0].Find(tx1, "a1")
	e1.Set("balance", "90")
	// Concurrent read on server 2 proceeds immediately.
	done := make(chan struct{})
	go func() {
		homes[1].FindReadOnly("a1")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("optimistic tx blocked a concurrent reader")
	}
	tx1.Commit()
}

func TestEntityPessimisticBlocksWriter(t *testing.T) {
	fx := newEJBFixture(t, 2)
	seedAccount(fx)
	homes := deployAccounts(fx, ejb.EntityPessimistic, time.Hour)

	tx1 := fx.txms[0].Begin(0)
	if _, err := homes[0].Find(tx1, "a1"); err != nil {
		t.Fatal(err)
	}
	// Second tx times out waiting for the row lock (the wait runs on the
	// fixture's virtual clock, so the test drives it forward).
	tx2 := fx.txms[1].Begin(0)
	sess2 := fx.db.Session(tx2.ID())
	sess2.LockTimeout = 50 * time.Millisecond
	tx2.Enlist("db:backend", sess2)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := sess2.GetForUpdate("accounts", "a1")
		errCh <- err
	}()
	var lockErr error
	for i := 0; i < 200; i++ {
		fx.f.VClock.Advance(20 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
		select {
		case lockErr = <-errCh:
			i = 200
		default:
		}
	}
	if !errors.Is(lockErr, store.ErrLockTimeout) {
		t.Fatalf("want lock timeout, got %v", lockErr)
	}
	tx2.Rollback()
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestEntityReadOnlyRejectsWrites(t *testing.T) {
	fx := newEJBFixture(t, 1)
	seedAccount(fx)
	homes := deployAccounts(fx, ejb.EntityReadOnly, time.Hour)
	txn := fx.txms[0].Begin(0)
	e, err := homes[0].Find(txn, "a1")
	if err != nil {
		t.Fatal(err)
	}
	e.Set("balance", "0")
	if err := txn.Commit(); !errors.Is(err, tx.ErrAborted) {
		t.Fatalf("read-only write should abort commit, got %v", err)
	}
}

func TestEntityCreateAndRemove(t *testing.T) {
	fx := newEJBFixture(t, 2)
	homes := deployAccounts(fx, ejb.EntityFlushOnUpdate, time.Hour)

	txn := fx.txms[0].Begin(0)
	if _, err := homes[0].Create(txn, "a9", map[string]string{"balance": "10"}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if f, err := homes[1].FindReadOnly("a9"); err != nil || f["balance"] != "10" {
		t.Fatalf("created bean not visible: %v %v", f, err)
	}

	txn2 := fx.txms[0].Begin(0)
	if err := homes[0].Remove(txn2, "a9"); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := homes[1].FindReadOnly("a9"); err == nil {
		t.Fatal("removed bean still visible")
	}
}

func TestEntityCacheHitRate(t *testing.T) {
	fx := newEJBFixture(t, 1)
	seedAccount(fx)
	homes := deployAccounts(fx, ejb.EntityTTL, time.Hour)
	for i := 0; i < 10; i++ {
		homes[0].FindReadOnly("a1")
	}
	hits := fx.f.Servers[0].Metrics.Counter("cache.hits").Value()
	if hits != 9 {
		t.Fatalf("hits = %d, want 9", hits)
	}
}

// TestStatefulLostReplyRunsOnce holds the handle to §3.1's rule: a method
// whose reply is lost — it partitions its primary from the caller while it
// runs — has run once, and the call surfaces an error that says it may
// have run (neither "not run" nor the application's), instead of running
// it again on the secondary.
func TestStatefulLostReplyRunsOnce(t *testing.T) {
	fx := newEJBFixture(t, 3)
	var runs atomic.Int64
	var home *ejb.StatefulHome
	for _, c := range fx.containers {
		h := c.DeployStateful(ejb.StatefulSpec{
			Name: "Pay",
			Methods: map[string]ejb.StatefulMethod{
				"charge": func(sc *ejb.StatefulCtx, _ []byte) ([]byte, error) {
					if runs.Add(1) == 1 {
						fx.f.Partition("server-1", "server-2", true)
					}
					sc.Set("charged", "yes")
					return nil, nil
				},
			},
		})
		if home == nil {
			home = h
		}
	}
	fx.f.Settle(2)
	// The client lives on server-1; the conversation's primary is server-2.
	h, err := home.Create(context.Background(), rmi.WithPolicy(pinServer("server-2")))
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Invoke(context.Background(), "charge", nil)
	if err == nil || errors.Is(err, wire.ErrNotRun) || rmi.IsAppError(err) {
		t.Fatalf("lost reply: err %v; want one that says the call may have run", err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("charge ran %d times, want once", n)
	}
}
