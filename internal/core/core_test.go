package core_test

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/core"
	"wls/internal/kv"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/singleton"
	"wls/internal/tuple"
	"wls/internal/vclock"
	"wls/internal/wire"
)

func TestServiceKindString(t *testing.T) {
	for k, want := range map[core.ServiceKind]string{
		core.Stateless: "stateless", core.Conversational: "conversational",
		core.Cached: "cached", core.Singleton: "singleton",
	} {
		if k.String() != want {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
}

// --- Execute queue (§2.3) -------------------------------------------------------
//
// The execute queue is rmi.Gate: the registry admits each request on the
// goroutine that delivered it, and runs it between Admit and Done. These
// tests hold its admission policies.

// admitted admits one request that runs until the test calls Done.
func admitted(t *testing.T, g *rmi.Gate) {
	t.Helper()
	if err := g.Admit(rmi.Budget{}); err != nil {
		t.Fatal(err)
	}
}

// inLine waits until n requests wait in g's line.
func inLine(t *testing.T, g *rmi.Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for g.Backlog() != n {
		if time.Now().After(deadline) {
			t.Fatalf("line holds %d, want %d", g.Backlog(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExecuteQueueRunsTasks(t *testing.T) {
	g := rmi.NewGate(rmi.QueueConfig{Workers: 2}, vclock.System, nil)
	defer g.Close()
	var n, running atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Admit(rmi.Budget{}); err != nil {
				t.Error(err)
				return
			}
			if running.Add(1) > 2 {
				t.Error("more than 2 ran at once")
			}
			n.Add(1)
			running.Add(-1)
			g.Done()
		}()
	}
	wg.Wait()
	if n.Load() != 50 {
		t.Fatalf("ran %d", n.Load())
	}
}

func TestDenyPolicyRejectsWhenFull(t *testing.T) {
	g := rmi.NewGate(rmi.QueueConfig{Workers: 1, QueueLen: 2}, vclock.System, nil)
	defer g.Close()
	// Occupy the only slot, then fill the line.
	admitted(t, g)
	defer g.Done()
	go g.Admit(rmi.Budget{})
	go g.Admit(rmi.Budget{})
	inLine(t, g, 2)
	err := g.Admit(rmi.Budget{})
	if !errors.Is(err, rmi.ErrDenied) {
		t.Fatalf("want ErrDenied, got %v", err)
	}
}

// TestQueueMetrics pins the admission observability contract: submitted /
// accepted / denied counters and a depth gauge that returns to zero once
// the backlog drains.
func TestQueueMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	g := rmi.NewGate(rmi.QueueConfig{Workers: 1, QueueLen: 2}, vclock.System, reg)
	defer g.Close()
	admitted(t, g)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.Admit(rmi.Budget{}) == nil {
				g.Done()
			}
		}()
	}
	inLine(t, g, 2)
	if err := g.Admit(rmi.Budget{}); !errors.Is(err, rmi.ErrDenied) {
		t.Fatalf("4th admit: want ErrDenied, got %v", err)
	}
	if got := reg.Counter("queue.submitted").Value(); got != 4 {
		t.Fatalf("queue.submitted = %d, want 4", got)
	}
	if got := reg.Counter("queue.accepted").Value(); got != 3 {
		t.Fatalf("queue.accepted = %d, want 3", got)
	}
	if got := reg.Counter("queue.denied").Value(); got != 1 {
		t.Fatalf("queue.denied = %d, want 1", got)
	}
	if got := reg.Gauge("queue.depth").Value(); got != 2 {
		t.Fatalf("queue.depth with backlog = %d, want 2", got)
	}
	g.Done()
	wg.Wait()
	if got := reg.Gauge("queue.depth").Value(); got != 0 {
		t.Fatalf("queue.depth never drained: %d", got)
	}
}

// TestRequestsWaitWhileTheLineHasRoom: with every slot taken, a request
// that finds room in the line waits there — it is not denied — and runs
// once a slot comes back. A line longer than the callers can fill is how a
// gate degrades instead of denying (E25's fixed+degrade row).
func TestRequestsWaitWhileTheLineHasRoom(t *testing.T) {
	g := rmi.NewGate(rmi.QueueConfig{Workers: 1, QueueLen: 2}, vclock.System, nil)
	defer g.Close()
	admitted(t, g)
	admit := func() <-chan error {
		out := make(chan error, 1)
		go func() {
			err := g.Admit(rmi.Budget{})
			if err == nil {
				g.Done()
			}
			out <- err
		}()
		return out
	}
	first := admit()
	inLine(t, g, 1)
	second := admit() // fills the line
	inLine(t, g, 2)
	select {
	case err := <-second:
		t.Fatalf("a request with room in line should have waited, got %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	g.Done()
	for _, ch := range []<-chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("a request in line was refused: %v", err)
			}
		case <-time.After(time.Second):
			t.Fatal("a request in line never ran after the slot came back")
		}
	}
}

func TestSelfTuningGrowsAndShrinks(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	g := rmi.NewGate(rmi.QueueConfig{
		Workers: 1, MaxWorkers: 8, QueueLen: 128,
		SelfTuning: true, TuneInterval: 100 * time.Millisecond,
	}, clk, nil)
	defer g.Close()

	// Saturate: blocked requests pile up in line.
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.Admit(rmi.Budget{}) == nil {
				<-release
				g.Done()
			}
		}()
	}
	inLine(t, g, 31)
	for i := 0; i < 10; i++ {
		clk.Advance(100 * time.Millisecond)
	}
	grown := g.Limit()
	if grown <= 1 {
		t.Fatalf("limit did not grow under backlog: %d", grown)
	}
	// Drain and idle: the limit shrinks back toward the floor.
	close(release)
	wg.Wait()
	for i := 0; i < 60 && g.Limit() > 1; i++ {
		clk.Advance(100 * time.Millisecond)
	}
	if g.Limit() != 1 {
		t.Fatalf("limit did not shrink when idle: %d", g.Limit())
	}
}

func TestQueueCloseRejects(t *testing.T) {
	g := rmi.NewGate(rmi.QueueConfig{}, vclock.System, nil)
	g.Close()
	if err := g.Admit(rmi.Budget{}); !errors.Is(err, rmi.ErrQueueClosed) {
		t.Fatalf("want ErrQueueClosed, got %v", err)
	}
	g.Close() // idempotent
}

// --- Migratable targets ---------------------------------------------------------

type flagService struct {
	name   string
	log    *[]string
	failOn bool
}

func (f *flagService) Activate(epoch uint64) error {
	if f.failOn {
		return errors.New(f.name + " refuses")
	}
	*f.log = append(*f.log, "up:"+f.name)
	return nil
}
func (f *flagService) Deactivate() { *f.log = append(*f.log, "down:"+f.name) }

func TestMigratableTargetActivatesInOrder(t *testing.T) {
	var log []string
	target := core.NewMigratableTarget("jms-unit").
		Add("queue", &flagService{name: "queue", log: &log}).
		Add("txlog", &flagService{name: "txlog", log: &log})
	if err := target.Activate(1); err != nil {
		t.Fatal(err)
	}
	target.Deactivate()
	want := []string{"up:queue", "up:txlog", "down:txlog", "down:queue"}
	for i, w := range want {
		if log[i] != w {
			t.Fatalf("log = %v", log)
		}
	}
	if got := target.Services(); len(got) != 2 || got[0] != "queue" {
		t.Fatalf("services = %v", got)
	}
}

func TestMigratableTargetAllOrNothing(t *testing.T) {
	var log []string
	target := core.NewMigratableTarget("t").
		Add("a", &flagService{name: "a", log: &log}).
		Add("b", &flagService{name: "b", log: &log, failOn: true})
	if err := target.Activate(1); err == nil {
		t.Fatal("want activation failure")
	}
	// a must have been rolled back.
	if len(log) != 2 || log[1] != "down:a" {
		t.Fatalf("log = %v", log)
	}
}

func TestMigratableTargetAsSingleton(t *testing.T) {
	var _ singleton.Activatable = core.NewMigratableTarget("x")
}

// --- Domain & config boot --------------------------------------------------------

func TestDomainConfig(t *testing.T) {
	d := core.NewDomain("prod")
	d.AddServer("web", "server-1", map[string]string{"port": "7001"})
	d.AddServer("web", "server-2", map[string]string{"port": "7001"})
	d.AddServer("tx", "server-3", map[string]string{"port": "8001"})

	if got := d.Clusters(); len(got) != 2 || got[0] != "tx" {
		t.Fatalf("clusters = %v", got)
	}
	if got := d.ServersIn("web"); len(got) != 2 {
		t.Fatalf("web servers = %v", got)
	}
	cfg, ok := d.ConfigOf("server-3")
	if !ok || cfg["port"] != "8001" || cfg["domain"] != "prod" || cfg["cluster"] != "tx" {
		t.Fatalf("config = %v", cfg)
	}
	if _, ok := d.ConfigOf("ghost"); ok {
		t.Fatal("ghost resolved")
	}
}

func TestBootFromAdminAndLocalReplica(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	d := core.NewDomain("prod")
	d.AddServer("c", "server-2", map[string]string{"port": "7001", "heap": "2g"})
	f.Servers[0].Registry.Register(d.AdminService())
	f.Settle(2)

	// Dependent boot: fetch from the admin server.
	cfg, err := core.BootFromAdmin(context.Background(), f.Servers[1].Endpoint,
		f.Servers[0].Endpoint.Addr(), "server-2")
	if err != nil || cfg["heap"] != "2g" {
		t.Fatalf("admin boot: %v %v", cfg, err)
	}

	// Replicate locally, crash the admin, boot autonomously.
	st := openLocalStore(t)
	if err := core.SaveLocalConfig(st, "server-2", cfg); err != nil {
		t.Fatal(err)
	}
	f.Crash("server-1")
	local, err := core.BootFromLocal(st, "server-2")
	if err != nil || local["heap"] != "2g" || local["domain"] != "prod" {
		t.Fatalf("local boot: %v %v", local, err)
	}
	// And without the replica, a dependent boot would fail.
	if _, err := core.BootFromAdmin(context.Background(), f.Servers[1].Endpoint,
		f.Servers[0].Endpoint.Addr(), "server-2"); err == nil {
		t.Fatal("admin boot should fail with the admin server down")
	}
}

func TestBootFromLocalMissingReplica(t *testing.T) {
	if _, err := core.BootFromLocal(openLocalStore(t), "nope"); err == nil {
		t.Fatal("want error for missing replica")
	}
}

// TestBootFromLocalRefusesALyingCount: a config replica whose attribute
// count no record of its length can carry fails before anything is sized
// by it, whether or not the count is absurd on its own: 2^20 was not.
func TestBootFromLocalRefusesALyingCount(t *testing.T) {
	st := openLocalStore(t)
	e := wire.NewEncoder(8)
	e.Int(1 << 20)
	if err := st.Put("wls.config", "server-2", e.Bytes()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := core.BootFromLocal(st, "server-2")
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
		t.Fatalf("boot over a count of 2^20: %v, %d bytes allocated", err, n)
	}
}

// openLocalStore opens a server's local store (tuple spaces over a WAL)
// in a fresh directory; it is closed when the test ends.
func openLocalStore(t *testing.T) *tuple.Store {
	t.Helper()
	w, err := kv.OpenWAL(filepath.Join(t.TempDir(), "cfg.store"), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tuple.New(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}
