package wls_test

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"wls"
	"wls/internal/ejb"
	"wls/internal/jms"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/singleton"
)

func TestClusterBootAndStatelessBean(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	for _, s := range c.Servers {
		name := s.Name
		s.EJB.DeployStateless(ejb.StatelessSpec{
			Name: "Hello",
			Methods: map[string]ejb.StatelessMethod{
				"hi": func(ctx context.Context, inst any, call *rmi.Call) ([]byte, error) {
					return []byte("hello from " + name), nil
				},
			},
		})
	}
	c.Settle(2)

	stub := c.Servers[0].Stub("Hello", rmi.WithPolicy(rmi.NewRoundRobin()))
	seen := map[string]bool{}
	for i := 0; i < 9; i++ {
		res, err := stub.Invoke(context.Background(), "hi", nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.ServedBy] = true
	}
	if len(seen) != 3 {
		t.Fatalf("spread = %d servers", len(seen))
	}
}

func TestClusterEntityBeanOverSharedDB(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.DB.Put("accounts", "a1", map[string]string{"balance": "100"})

	var homes []*ejb.EntityHome
	for _, s := range c.Servers {
		homes = append(homes, s.EJB.DeployEntity(ejb.EntitySpec{
			Name: "Account", Table: "accounts", Mode: ejb.EntityFlushOnUpdate, TTL: time.Hour,
		}))
	}
	txn := c.Servers[0].Tx.Begin(0)
	e, err := homes[0].Find(txn, "a1")
	if err != nil {
		t.Fatal(err)
	}
	e.Set("balance", "90")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	f, err := homes[1].FindReadOnly("a1")
	if err != nil || f["balance"] != "90" {
		t.Fatalf("cross-server read: %v %v", f, err)
	}
}

func TestClusterWebTierEndToEnd(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		s.Web.Handle("/n", func(r *servlet.Request) servlet.Response {
			n, _ := strconv.Atoi(r.Session.Get("n"))
			n++
			r.Session.Set("n", strconv.Itoa(n))
			return servlet.Response{Body: []byte(strconv.Itoa(n))}
		})
	}
	c.Settle(2)
	proxy := c.ProxyPlugin("web:80")
	resp, err := proxy.Route(context.Background(), "/n", "", nil)
	if err != nil || string(resp.Body) != "1" {
		t.Fatalf("first: %q err=%v", resp.Body, err)
	}
	resp2, err := proxy.Route(context.Background(), "/n", resp.Cookie, nil)
	if err != nil || string(resp2.Body) != "2" {
		t.Fatalf("second: %q err=%v", resp2.Body, err)
	}
}

func TestClusterSingletonViaAdmin(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 2, WithAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	h := c.Servers[0].SingletonHost(singleton.Config{Service: "q", Preferred: []string{"server-1"}},
		singleton.FuncService{})
	h.Start()
	defer h.Stop()
	c.Settle(4)
	if !h.Active() {
		t.Fatal("singleton did not activate")
	}
}

func TestClusterCrashRestart(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Crash("server-2")
	c.Settle(6)
	if len(c.Servers[0].Member().Alive()) != 1 {
		t.Fatal("crash not observed")
	}
	c.Restart("server-2")
	c.Settle(4)
	if len(c.Servers[0].Member().Alive()) != 2 {
		t.Fatal("restart not observed")
	}
}

// A stateful bean's session manager attaches its ring to the server's
// member, which outlives a restart. Restart closes the old container, which
// detaches the ring, so restarts and redeploys leave the member's listener
// count where it was.
func TestRestartDetachesBeanRings(t *testing.T) {
	ctx := context.Background()
	c, err := wls.New(wls.Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	// use deploys the bean on s and creates and invokes a conversation
	// through s's home, whose local preference makes s its primary.
	use := func(s *wls.Server) {
		t.Helper()
		home := s.EJB.DeployStateful(ejb.StatefulSpec{
			Name: "Counter",
			Methods: map[string]ejb.StatefulMethod{
				"inc": func(sc *ejb.StatefulCtx, _ []byte) ([]byte, error) {
					sc.Set("n", "1")
					return nil, nil
				},
			},
		})
		c.Settle(2)
		h, err := home.Create(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Invoke(ctx, "inc", nil); err != nil {
			t.Fatal(err)
		}
	}
	use(c.Servers[0])
	use(c.Servers[1])
	m := c.Servers[1].Member()
	before := m.Listeners()
	for i := 0; i < 5; i++ {
		s, err := c.Restart("server-2")
		if err != nil {
			t.Fatal(err)
		}
		use(s)
	}
	if got := m.Listeners(); got != before {
		t.Fatalf("member listeners %d after 5 restarts and redeploys, %d before", got, before)
	}
}

func TestClusterJMSDefaultInMemory(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	q := c.Servers[0].JMS.Queue("orders")
	q.Send(jms.Message{Body: []byte("x")})
	m, err := q.Receive()
	if err != nil || string(m.Body) != "x" {
		t.Fatalf("receive: %v %q", err, m.Body)
	}
}

func TestClusterDurableWithDataDir(t *testing.T) {
	dir := t.TempDir()
	c, err := wls.New(wls.Options{Servers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.Servers[0].Files == nil {
		t.Fatal("no store with DataDir")
	}
	q := c.Servers[0].JMS.Queue("orders")
	if _, err := q.Send(jms.Message{Body: []byte("durable")}); err != nil {
		t.Fatal(err)
	}
	// The send is on disk before it returns, and the store counts into the
	// server's own registry.
	if n := c.Servers[0].Metrics().Counter("kv.syncs").Value(); n < 1 {
		t.Fatalf("kv.syncs = %d after a persistent send, want >= 1", n)
	}
}

// A restarted server is assembled like a new one: its store is reopened on
// the registry Server.Metrics returns, so a persistent send after the
// reboot moves kv.syncs there, and the backlog sent before the crash is
// recovered from the reopened file. A store that does not reopen fails the
// restart and leaves the server down with no store, to be restarted again.
func TestRestartedStoreCountsIntoServerMetrics(t *testing.T) {
	dir := t.TempDir()
	c, err := wls.New(wls.Options{Servers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.Servers[0].JMS.Queue("orders").Send(jms.Message{ID: "o-1", Body: []byte("before")}); err != nil {
		t.Fatal(err)
	}
	c.Crash("server-1")
	s, err := c.Restart("server-1")
	if err != nil {
		t.Fatal(err)
	}
	syncs := s.Metrics().Counter("kv.syncs")
	before := syncs.Value()
	q := s.JMS.Queue("orders")
	if _, err := q.Send(jms.Message{ID: "o-2", Body: []byte("after")}); err != nil {
		t.Fatal(err)
	}
	if syncs.Value() <= before {
		t.Fatalf("kv.syncs = %d after a persistent send on the restarted server, want > %d", syncs.Value(), before)
	}
	if n := q.Len(); n != 2 {
		t.Fatalf("restarted queue holds %d messages, want 2", n)
	}
	if _, err := c.Restart("server-9"); err == nil {
		t.Fatal("restarting an unknown server reported no error")
	}

	c.Crash("server-1")
	main := filepath.Join(dir, "server-1.store")
	if err := os.WriteFile(main+".foreign", []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(main+".foreign", main); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart("server-1"); err == nil {
		t.Fatal("restart over a foreign store file reported no error")
	}
	if s.Files != nil {
		t.Fatal("a failed restart left the server a store")
	}
	if err := os.Remove(main); err != nil {
		t.Fatal(err)
	}
	if s, err = c.Restart("server-1"); err != nil {
		t.Fatalf("restart after the foreign file is gone: %v", err)
	}
	if _, err := s.JMS.Queue("orders").Send(jms.Message{ID: "o-3"}); err != nil {
		t.Fatal(err)
	}
}

func TestNamingAcrossServers(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Servers[0].Naming.Bind("ejb/OrderHome", []byte("server-1"))
	v, ok := c.Servers[1].Naming.Lookup("ejb/OrderHome")
	if !ok || string(v) != "server-1" {
		t.Fatalf("lookup: %q ok=%v", v, ok)
	}
}

// On the wall clock a cold boot is ready when New returns, and New returns
// without waiting for a heartbeat: peers answer each joiner's announcement,
// so views (and rings) agree as soon as the last server has started. It
// used to sleep three 100 ms intervals.
func TestRealClockBootDoesNotWaitForAHeartbeat(t *testing.T) {
	start := time.Now()
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true, WithAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	took := time.Since(start)
	if !c.Converged() {
		t.Fatal("New returned before views and rings agreed")
	}
	for _, s := range append([]*wls.Server{c.Admin}, c.Servers...) {
		if got := len(s.Member().Alive()); got != 4 {
			t.Fatalf("%s sees %d servers when New returns, want 4", s.Name, got)
		}
	}
	if took >= 100*time.Millisecond {
		t.Fatalf("New took %v, one heartbeat interval or more", took)
	}

	// A deployment reaches every server the same way.
	for _, s := range c.Servers {
		s.Web.Handle("/x", func(*servlet.Request) servlet.Response { return servlet.Response{} })
		s.Member().Advertise("late-service")
	}
	start = time.Now()
	c.AwaitConverged()
	if took := time.Since(start); took >= 100*time.Millisecond || !c.Converged() {
		t.Fatalf("AwaitConverged after a deployment took %v (converged %v)", took, c.Converged())
	}
	if got := len(c.Admin.Member().OffersOf("late-service")); got != 3 {
		t.Fatalf("admin sees %d offers of the late service, want 3", got)
	}
}
