// Shoppingcart: the §3.2 web-tier story end to end. A browser talks to a
// web-server proxy plug-in (Figure 2); its cart lives in an in-memory
// servlet session replicated primary/secondary; the cookie carries both
// locations; a crash of the primary is invisible to the shopper; checkout
// is the §5.2 critical fulfilment step with optimistic concurrency.
//
//	go run ./examples/shoppingcart
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"strings"

	"wls"
	"wls/internal/servlet"
	"wls/internal/warehouse"
)

func main() {
	cluster, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	// Inventory in the backend database.
	cluster.DB.Put("inventory", "anvil", map[string]string{"stock": "3", "price": "25"})
	cluster.DB.Put("inventory", "rocket", map[string]string{"stock": "5", "price": "99"})

	// The cart servlet, deployed on every engine.
	for _, s := range cluster.Servers {
		db := cluster.DB
		s.Web.Handle("/cart/add", func(r *servlet.Request) servlet.Response {
			item := string(r.Body)
			n, _ := strconv.Atoi(r.Session.Get("count"))
			r.Session.Set("count", strconv.Itoa(n+1))
			r.Session.Set("item-"+strconv.Itoa(n), item)
			return servlet.Response{Body: []byte(fmt.Sprintf("added %s (cart: %d items)", item, n+1))}
		})
		s.Web.Handle("/cart/checkout", func(r *servlet.Request) servlet.Response {
			n, _ := strconv.Atoi(r.Session.Get("count"))
			var items []string
			for i := 0; i < n; i++ {
				items = append(items, r.Session.Get("item-"+strconv.Itoa(i)))
			}
			// The critical fulfilment step: optimistic decrement against
			// the operational store (§5.2's shopping-cart model).
			for _, item := range items {
				if err := warehouse.FulfillWithRetry(db, "inventory", item, "stock", 1,
					"checkout-"+r.Session.ID, 10); err != nil {
					return servlet.Response{Status: 409,
						Body: []byte("checkout failed: " + err.Error())}
				}
			}
			r.Session.Set("count", "0")
			return servlet.Response{Body: []byte(fmt.Sprintf("purchased: %s", strings.Join(items, ", ")))}
		})
	}
	cluster.Settle(3)

	proxy := cluster.ProxyPlugin("webserver:80")
	ctx := context.Background()

	fmt.Println("== shopping through the Fig 2 proxy plug-in ==")
	resp, err := proxy.Route(ctx, "/cart/add", "", []byte("anvil"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s  [on %s]\n", resp.Body, resp.ServedBy)
	cookie := resp.Cookie
	ck, _ := servlet.DecodeCookie(cookie)
	fmt.Printf("  cookie: primary=%s secondary=%s (replication pair)\n", ck.Primary, ck.Secondary)

	resp, err = proxy.Route(ctx, "/cart/add", cookie, []byte("anvil"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s  [on %s]\n", resp.Body, resp.ServedBy)
	if resp.Cookie != "" {
		cookie = resp.Cookie
	}

	fmt.Println("\n== the primary crashes mid-session (§3.2) ==")
	cluster.Crash(ck.Primary)
	fmt.Printf("  crashed %s\n", ck.Primary)
	resp, err = proxy.Route(ctx, "/cart/add", cookie, []byte("rocket"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s  [on %s — the old secondary, promoted]\n", resp.Body, resp.ServedBy)
	if resp.Cookie != "" {
		cookie = resp.Cookie
	}
	ck2, _ := servlet.DecodeCookie(cookie)
	fmt.Printf("  cookie rewritten: primary=%s secondary=%s\n", ck2.Primary, ck2.Secondary)

	fmt.Println("\n== checkout: the critical fulfilment step (§5.2) ==")
	resp, err = proxy.Route(ctx, "/cart/checkout", cookie, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", resp.Body)
	row, _ := cluster.DB.Get("inventory", "anvil")
	fmt.Printf("  inventory after checkout: %s anvils left\n", row.Fields["stock"])

	// A second shopper wants 2 anvils but only 1 remains: the best-effort
	// phase can't know; the critical step fails cleanly.
	resp2, _ := proxy.Route(ctx, "/cart/add", "", []byte("anvil"))
	c2 := resp2.Cookie
	resp2, _ = proxy.Route(ctx, "/cart/add", c2, []byte("anvil"))
	if resp2.Cookie != "" {
		c2 = resp2.Cookie
	}
	resp2, err = proxy.Route(ctx, "/cart/checkout", c2, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  second shopper (wants 2, 1 left): HTTP %d — %s\n", resp2.Status, resp2.Body)
	fmt.Println("\nshoppingcart complete")
}
