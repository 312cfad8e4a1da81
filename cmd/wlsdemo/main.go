// Command wlsdemo is a guided tour of the four clustered-service types of
// §3 in one run: it boots a cluster with an admin server, deploys one
// service of each kind, then injects failures and narrates what the
// clustering infrastructure does about each one.
//
//	go run ./cmd/wlsdemo
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"time"

	"wls"
	"wls/internal/ejb"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/singleton"
)

func say(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func main() {
	cluster, err := wls.New(wls.Options{Servers: 3, WithAdmin: true, RealClock: true,
		LeaseTTL: 500 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	ctx := context.Background()

	say("═══ the four types of clustered services (§3) ═══")
	say("cluster: %d managed servers + 1 admin server (lease manager)", len(cluster.Servers))

	// 1. Stateless.
	say("\n── 1. stateless service (§3.1) ──")
	for _, s := range cluster.Servers {
		name := s.Name
		s.EJB.DeployStateless(ejb.StatelessSpec{
			Name: "QuoteBean",
			Methods: map[string]ejb.StatelessMethod{
				"quote": func(ctx context.Context, call *rmi.Call) ([]byte, error) {
					return []byte("IBM@85 via " + name), nil
				},
			},
		})
	}
	cluster.Settle(2)
	stub := cluster.Servers[0].Stub("QuoteBean",
		rmi.WithPolicy(rmi.NewRoundRobin()), rmi.WithIdempotent("quote"))
	for i := 0; i < 3; i++ {
		res, _ := stub.Invoke(ctx, "quote", nil)
		say("  %s", res.Body)
	}
	say("  any instance is as good as any other: load balancing is trivial")

	// 2. Conversational.
	say("\n── 2. conversational service (§3.2) ──")
	for _, s := range cluster.Servers {
		s.Web.Handle("/visit", func(r *servlet.Request) servlet.Response {
			n, _ := strconv.Atoi(r.Session.Get("n"))
			r.Session.Set("n", strconv.Itoa(n+1))
			return servlet.Response{Body: []byte(strconv.Itoa(n + 1))}
		})
	}
	cluster.Settle(2)
	proxy := cluster.ProxyPlugin("web:80")
	resp, _ := proxy.Route(ctx, "/visit", "", nil)
	for i := 0; i < 2; i++ {
		resp, _ = proxy.Route(ctx, "/visit", resp.Cookie, nil)
	}
	ck, _ := servlet.DecodeCookie(resp.Cookie)
	say("  session pinned to %s, replicated on %s (cookie carries both)", ck.Primary, ck.Secondary)
	cluster.Crash(ck.Primary)
	resp, err = proxy.Route(ctx, "/visit", resp.Cookie, nil)
	if err != nil {
		log.Fatal(err)
	}
	say("  crashed %s → request served by %s with state intact (visits=%s)",
		ck.Primary, resp.ServedBy, resp.Body)
	if _, err := cluster.Restart(ck.Primary); err != nil {
		log.Fatal(err)
	}
	cluster.Settle(3)

	// 3. Cached.
	say("\n── 3. cached service (§3.3) ──")
	cluster.DB.Put("catalog", "anvil", map[string]string{"price": "25"})
	var homes []*ejb.EntityHome
	for _, s := range cluster.Servers {
		homes = append(homes, s.EJB.DeployEntity(ejb.EntitySpec{
			Name: "CatalogBean", Table: "catalog",
			Mode: ejb.EntityFlushOnUpdate, TTL: time.Minute,
		}))
	}
	for i := range cluster.Servers {
		f, _ := homes[i].FindReadOnly("anvil")
		say("  server-%d cached price=%s", i+1, f["price"])
	}
	txn := cluster.Servers[2].Tx.Begin(0)
	e, _ := homes[2].Find(txn, "anvil")
	e.Set("price", "30")
	if err := txn.Commit(); err != nil {
		log.Fatal(err)
	}
	say("  server-3 committed price=30 → bean-level flush signal broadcast")
	for i := range cluster.Servers {
		f, _ := homes[i].FindReadOnly("anvil")
		say("  server-%d now reads price=%s", i+1, f["price"])
	}

	// 4. Singleton.
	say("\n── 4. singleton service (§3.4) ──")
	hosts := make([]*singleton.Host, len(cluster.Servers))
	for i, s := range cluster.Servers {
		hosts[i] = s.SingletonHost(singleton.Config{
			Service:   "order-sequencer",
			Preferred: []string{"server-1", "server-2", "server-3"},
		}, singleton.Nop{})
		hosts[i].Start()
		defer hosts[i].Stop()
	}
	waitOwner := func() int {
		for i := 0; i < 100; i++ {
			for idx, h := range hosts {
				if h.Active() {
					return idx
				}
			}
			cluster.Clock().Sleep(20 * time.Millisecond)
		}
		return -1
	}
	owner := waitOwner()
	say("  'order-sequencer' active on exactly one server: %s (lease epoch %d)",
		cluster.Servers[owner].Name, hosts[owner].Epoch())
	cluster.Crash(cluster.Servers[owner].Name)
	hosts[owner].Stop()
	say("  crashed the owner; waiting for the lease to expire and migrate...")
	cluster.Clock().Sleep(700 * time.Millisecond)
	newOwner := waitOwner()
	if newOwner < 0 {
		log.Fatal("no owner after migration")
	}
	say("  migrated to %s with fencing epoch %d (split-brain impossible: old epoch is stale)",
		cluster.Servers[newOwner].Name, hosts[newOwner].Epoch())

	say("\n═══ tour complete ═══")
}
