// Workflow: the §4 server-to-server programming model. A buyer cluster
// holds a long-running conversation with a supplier service — synchronous
// request-response, asynchronous one-way messages, and callbacks flowing
// the other way (Figure 4's shape). Orders travel between the clusters by
// store-and-forward messaging, so a supplier outage only delays work
// instead of losing it. The supplier's conversation state is durable: it
// survives a supplier restart.
//
//	go run ./examples/workflow
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"wls"
	"wls/internal/jms"
	"wls/internal/kv"
	"wls/internal/tuple"
	"wls/internal/wsdl"
)

func main() {
	cluster, err := wls.New(wls.Options{Servers: 2, RealClock: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	buyer, supplier := cluster.Servers[0], cluster.Servers[1]

	dir, _ := os.MkdirTemp("", "workflow")
	defer os.RemoveAll(dir)
	// The supplier's middle-tier store: tuple spaces over a synced WAL, the
	// layout a server opens under wls.Options.DataDir.
	supplierWAL, err := kv.OpenWAL(filepath.Join(dir, "supplier.store"), kv.Options{SyncEveryCommit: true})
	if err != nil {
		log.Fatal(err)
	}
	supplierStore, err := tuple.New(supplierWAL)
	if err != nil {
		log.Fatal(err)
	}
	defer supplierStore.Close()

	// The supplier's WSDL service: a durable conversation per purchasing
	// relationship, with a callback notifying the buyer of shipments.
	supplierPort := wsdl.NewPort(supplier.Registry(), supplierStore)
	procurement := &wsdl.ServiceDef{
		Name:    "Procurement",
		Durable: true,
		Operations: map[string]wsdl.Operation{
			"order": {Kind: wsdl.RequestResponse, Handler: func(cv *wsdl.Conversation, p []byte) ([]byte, error) {
				n, _ := strconv.Atoi(cv.Get("orders"))
				cv.Set("orders", strconv.Itoa(n+1))
				cv.Set("last", string(p))
				// Asynchronously notify the buyer that the order shipped.
				_ = cv.Send(context.Background(), "shipped", []byte(fmt.Sprintf("%s (order #%d)", p, n+1)))
				return []byte(fmt.Sprintf("accepted #%d", n+1)), nil
			}},
			"status": {Kind: wsdl.RequestResponse, Handler: func(cv *wsdl.Conversation, p []byte) ([]byte, error) {
				return []byte(fmt.Sprintf("%s orders, last=%s", cv.Get("orders"), cv.Get("last"))), nil
			}},
		},
		Callbacks: map[string]wsdl.OpKind{"shipped": wsdl.Notification},
	}
	supplierPort.Offer(procurement)
	buyerPort := wsdl.NewPort(buyer.Registry(), nil)
	cluster.Settle(2)

	fmt.Println("== a long-running conversation with callbacks (Fig 4) ==")
	shipments := make(chan string, 16)
	conv, err := buyerPort.StartConversation(context.Background(), supplierPort.Addr(), "Procurement",
		map[string]wsdl.Handler{
			"shipped": func(cv *wsdl.Conversation, p []byte) ([]byte, error) {
				shipments <- string(p)
				return nil, nil
			},
		})
	if err != nil {
		log.Fatal(err)
	}
	loc, _ := wsdl.LocationOf(conv.ID)
	fmt.Printf("  conversation %s (location embedded: %s)\n", conv.ID, loc)
	for _, item := range []string{"100 anvils", "20 rockets"} {
		out, err := conv.Call(context.Background(), "order", []byte(item))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  order(%s) -> %s; callback: shipped %s\n", item, out, <-shipments)
	}

	fmt.Println("\n== the supplier restarts; the durable conversation survives (§5.1) ==")
	cluster.Crash(supplier.Name)
	if supplier, err = cluster.Restart(supplier.Name); err != nil {
		log.Fatal(err)
	}
	supplierPort2 := wsdl.NewPort(supplier.Registry(), supplierStore)
	supplierPort2.Offer(procurement)
	recovered := supplierPort2.Recover()
	cluster.Settle(3)
	fmt.Printf("  recovered %d durable conversation(s)\n", recovered)
	out, err := conv.Call(context.Background(), "status", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  status after restart -> %s\n", out)

	fmt.Println("\n== store-and-forward keeps orders flowing through an outage (§4) ==")
	outbox := buyer.JMS.Queue("orders-outbox")
	fw := jms.NewForwarder(outbox, buyer.Node(), supplier.Addr(), "orders-inbox", cluster.Clock(), 20*time.Millisecond)
	fw.Start()
	defer fw.Stop()

	cluster.Net().SetPartitioned(buyer.Addr(), supplier.Addr(), true)
	fmt.Println("  WAN link down; buyer keeps producing:")
	for i := 1; i <= 5; i++ {
		if _, err := outbox.Send(jms.Message{Body: []byte(fmt.Sprintf("backorder-%d", i))}); err != nil {
			log.Fatal(err)
		}
	}
	cluster.Clock().Sleep(100 * time.Millisecond)
	fmt.Printf("    buffered locally: %d, delivered remotely: %d\n",
		outbox.Len(), supplier.JMS.Queue("orders-inbox").Len())

	cluster.Net().SetPartitioned(buyer.Addr(), supplier.Addr(), false)
	clk := cluster.Clock()
	deadline := clk.Now().Add(5 * time.Second)
	for supplier.JMS.Queue("orders-inbox").Len() < 5 && clk.Now().Before(deadline) {
		clk.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("  link healed; delivered remotely: %d (exactly once, in order)\n",
		supplier.JMS.Queue("orders-inbox").Len())
	fmt.Println("\nworkflow complete")
}
