package wls_test

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"wls"
	"wls/internal/ejb"
	"wls/internal/jms"
	"wls/internal/rmi"
	"wls/internal/servlet"
)

// TestHotRedeployUnderTraffic exercises §3.4's "hot redeploy of application
// software": one server undeploys v1 and deploys v2 of a service while a
// client hammers it. The stub's no-such-service failover hides the gap.
func TestHotRedeployUnderTraffic(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	deploy := func(s *wls.Server, version string) {
		s.Registry().Register(&rmi.Service{
			Name: "Pricing",
			Methods: map[string]rmi.MethodSpec{
				"price": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
					return []byte(version), nil
				}},
			},
		})
	}
	for _, s := range c.Servers {
		deploy(s, "v1")
	}
	c.Settle(2)

	stub := c.Servers[1].Stub("Pricing", rmi.WithPolicy(rmi.NewRoundRobin()), rmi.WithIdempotent("price"))
	stop := make(chan struct{})
	var failures, calls int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := stub.Invoke(context.Background(), "price", nil)
			mu.Lock()
			calls++
			if err != nil {
				failures++
			}
			mu.Unlock()
		}
	}()

	// Rolling redeploy, one server at a time.
	for _, s := range c.Servers {
		s.Registry().Unregister("Pricing")
		time.Sleep(5 * time.Millisecond)
		deploy(s, "v2")
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("no traffic flowed")
	}
	if failures > 0 {
		t.Fatalf("%d/%d requests failed during hot redeploy", failures, calls)
	}
	// The new version is live everywhere.
	res, err := stub.Invoke(context.Background(), "price", nil)
	if err != nil || string(res.Body) != "v2" {
		t.Fatalf("after redeploy: %q err=%v", res.Body, err)
	}
}

// TestRollingRestartKeepsServiceAvailable exercises §3.4's "rolling
// upgrades of server software": servers restart one at a time while
// idempotent traffic keeps flowing.
func TestRollingRestartKeepsServiceAvailable(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	deploy := func(s *wls.Server) {
		name := s.Name
		s.Registry().Register(&rmi.Service{
			Name: "Inventory",
			Methods: map[string]rmi.MethodSpec{
				"check": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
					return []byte(name), nil
				}},
			},
		})
	}
	for _, s := range c.Servers {
		deploy(s)
	}
	c.Settle(2)

	for round, victim := range []string{"server-1", "server-2", "server-3"} {
		// The client runs on a server that is not currently restarting.
		clientIdx := (round + 1) % 3
		stub := c.Servers[clientIdx].Stub("Inventory",
			rmi.WithPolicy(rmi.NewRoundRobin()), rmi.WithIdempotent("check"))

		c.Crash(victim)
		for i := 0; i < 10; i++ {
			if _, err := stub.Invoke(context.Background(), "check", nil); err != nil {
				t.Fatalf("round %d: request failed during restart of %s: %v", round, victim, err)
			}
		}
		s, err := c.Restart(victim)
		if err != nil {
			t.Fatal(err)
		}
		deploy(s) // the upgraded server redeploys its applications
		c.Settle(5)
		if len(c.Servers[clientIdx].Member().Alive()) != 3 {
			t.Fatalf("round %d: %s did not rejoin", round, victim)
		}
	}
}

// TestOrderPipelineEndToEnd strings the tiers together the way Figure 1
// draws them: an HTTP request through the proxy plug-in runs a servlet
// that performs a transaction spanning the backend database and a JMS
// queue; a worker consumes the queue transactionally.
func TestOrderPipelineEndToEnd(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 2, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.DB.Put("inventory", "anvil", map[string]string{"stock": "10"})

	for _, s := range c.Servers {
		srv := s
		s.Web.Handle("/order", func(r *servlet.Request) servlet.Response {
			txn := srv.Tx.Begin(0)
			sess := c.DB.Session(txn.ID())
			row, _ := c.DB.Get("inventory", "anvil")
			var stock int
			fmt.Sscan(row.Fields["stock"], &stock)
			if stock == 0 {
				txn.Rollback()
				return servlet.Response{Status: 409, Body: []byte("sold out")}
			}
			sess.UpdateVersioned("inventory", "anvil", row.Version,
				map[string]string{"stock": strconv.Itoa(stock - 1)})
			txn.Enlist("db", sess)
			if _, err := srv.JMS.Queue("shipping").SendTx(txn, jms.Message{
				Body: []byte("ship anvil to " + r.Session.ID),
			}); err != nil {
				txn.Rollback()
				return servlet.Response{Status: 500, Body: []byte(err.Error())}
			}
			if err := txn.Commit(); err != nil {
				return servlet.Response{Status: 409, Body: []byte(err.Error())}
			}
			return servlet.Response{Body: []byte("ordered")}
		})
	}
	c.Settle(2)

	proxy := c.ProxyPlugin("web:80")
	ordered := 0
	var cookie string
	for i := 0; i < 12; i++ { // 12 attempts at 10 units: 2 sell-outs
		resp, err := proxy.Route(context.Background(), "/order", cookie, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cookie != "" {
			cookie = resp.Cookie
		}
		if resp.Status == 200 {
			ordered++
		}
	}
	if ordered != 10 {
		t.Fatalf("ordered %d, want exactly 10 (stock)", ordered)
	}
	row, _ := c.DB.Get("inventory", "anvil")
	if row.Fields["stock"] != "0" {
		t.Fatalf("stock = %s", row.Fields["stock"])
	}
	// Exactly the committed orders reached the shipping queue; the two
	// rejected ones left no message (atomicity across DB + JMS).
	shipped := 0
	for _, s := range c.Servers {
		shipped += s.JMS.Queue("shipping").Len()
	}
	if shipped != 10 {
		t.Fatalf("shipping queue has %d messages, want 10", shipped)
	}
}

// TestEntityCacheCoherenceAcrossWebTier drives the full read path: servlet
// → entity bean cache → backend, with a write on another server
// invalidating through the bus.
func TestEntityCacheCoherenceAcrossWebTier(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 2, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.DB.Put("catalog", "anvil", map[string]string{"price": "25"})
	var homes []*ejb.EntityHome
	for _, s := range c.Servers {
		h := s.EJB.DeployEntity(ejb.EntitySpec{
			Name: "Catalog", Table: "catalog", Mode: ejb.EntityFlushOnUpdate, TTL: time.Hour,
		})
		homes = append(homes, h)
		s.Web.Handle("/price", func(r *servlet.Request) servlet.Response {
			f, err := h.FindReadOnly("anvil")
			if err != nil {
				return servlet.Response{Status: 500}
			}
			return servlet.Response{Body: []byte(f["price"])}
		})
	}
	c.Settle(2)
	proxy := c.ProxyPlugin("web:80")

	resp, _ := proxy.Route(context.Background(), "/price", "", nil)
	if string(resp.Body) != "25" {
		t.Fatalf("price = %q", resp.Body)
	}
	// Price change through server-2's container.
	txn := c.Servers[1].Tx.Begin(0)
	e, _ := homes[1].Find(txn, "anvil")
	e.Set("price", "30")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Every subsequent read, wherever routed, sees the new price.
	for i := 0; i < 6; i++ {
		resp, err := proxy.Route(context.Background(), "/price", "", nil)
		if err != nil || string(resp.Body) != "30" {
			t.Fatalf("read %d: %q err=%v", i, resp.Body, err)
		}
	}
}
