// Quickstart: boot a three-server cluster, deploy a clustered stateless
// bean and a cached entity bean, invoke them through the cluster-aware
// stub, and watch failover keep the service available when a server dies.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"wls"
	"wls/internal/ejb"
	"wls/internal/rmi"
)

func main() {
	// A cluster of three application servers over the simulated fabric
	// (real TCP transport lives in cmd/wlsd; the protocols are identical).
	cluster, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	fmt.Println("== booted cluster ==")
	for _, s := range cluster.Servers {
		fmt.Printf("  %s @ %s\n", s.Name, s.Addr())
	}

	// 1. A stateless session bean, deployed homogeneously (§3.1): any
	// instance is as good as any other.
	for _, s := range cluster.Servers {
		name := s.Name
		s.EJB.DeployStateless(ejb.StatelessSpec{
			Name: "GreeterBean",
			Methods: map[string]ejb.StatelessMethod{
				"greet": func(ctx context.Context, call *rmi.Call) ([]byte, error) {
					return []byte(fmt.Sprintf("hello %s, from %s", call.Args, name)), nil
				},
			},
		})
	}
	cluster.Settle(2)

	fmt.Println("\n== round-robin load balancing (§3.1) ==")
	stub := cluster.Servers[0].Stub("GreeterBean",
		rmi.WithPolicy(rmi.NewRoundRobin()), rmi.WithIdempotent("greet"))
	for i := 0; i < 6; i++ {
		res, err := stub.Invoke(context.Background(), "greet", []byte("world"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s (served by %s)\n", res.Body, res.ServedBy)
	}

	// 2. A cached entity bean over the shared backend database (§3.3).
	cluster.DB.Put("accounts", "alice", map[string]string{"balance": "100"})
	var homes []*ejb.EntityHome
	for _, s := range cluster.Servers {
		homes = append(homes, s.EJB.DeployEntity(ejb.EntitySpec{
			Name: "AccountBean", Table: "accounts",
			Mode: ejb.EntityFlushOnUpdate, TTL: time.Minute,
		}))
	}

	fmt.Println("\n== transactional entity update with flush-on-update (§3.3) ==")
	txn := cluster.Servers[0].Tx.Begin(0)
	acct, err := homes[0].Find(txn, "alice")
	if err != nil {
		log.Fatal(err)
	}
	acct.Set("balance", "85")
	if err := txn.Commit(); err != nil {
		log.Fatal(err)
	}
	// Every server sees the new value: the commit broadcast a bean-level
	// cache-flush signal.
	for i, h := range homes {
		f, _ := h.FindReadOnly("alice")
		fmt.Printf("  server-%d reads balance = %s\n", i+1, f["balance"])
	}

	// 3. Failover: kill a server; the stub retries idempotent calls on the
	// survivors (§3.1).
	fmt.Println("\n== failover after a crash (§3.1) ==")
	cluster.Crash("server-2")
	fmt.Println("  crashed server-2")
	for i := 0; i < 4; i++ {
		res, err := stub.Invoke(context.Background(), "greet", []byte("survivor"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s (served by %s)\n", res.Body, res.ServedBy)
	}
	fmt.Println("\nquickstart complete")
}
