//go:build !race

package wls_test

// The race runtime drops sync.Pool items at random, so allocation counts
// only mean something without it; `make race` skips this file.

// Allocation gates for the zero-alloc request path (E31). Each test pins
// the allocations/request of one tier boundary with testing.AllocsPerRun;
// the pooled request/response/session objects, reused encoders, and the
// no-alloc routing decision are what keep these numbers single-digit. The
// pins carry a little slack over the measured values (4.0 full echo, 0.0
// direct echo at the time of writing) so GC noise does not flake the
// suite, but a pooling regression of even a few allocs/request trips them.

import (
	"context"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"wls"
	"wls/internal/kv"
	"wls/internal/servlet"
	"wls/internal/store"
	"wls/internal/tx"
	"wls/internal/vclock"
	"wls/internal/webtier"
	"wls/internal/wire"
)

func allocGateCluster(t *testing.T) *wls.Cluster {
	t.Helper()
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for _, s := range c.Servers {
		s.Web.Handle("/echo", func(r *servlet.Request) servlet.Response {
			return servlet.Response{Body: r.Body}
		})
		s.Web.Handle("/count", func(r *servlet.Request) servlet.Response {
			r.Session.Set("n", "1")
			return servlet.Response{Body: []byte("ok")}
		})
	}
	c.Settle(2)
	return c
}

// TestAllocGateWebtierEcho pins the full path — proxy plug-in routing, the
// RMI hop, the servlet engine, and session resolution — at no more than 10
// allocations per request with tracing disabled (the tentpole target).
func TestAllocGateWebtierEcho(t *testing.T) {
	c := allocGateCluster(t)
	proxy := c.ProxyPlugin("webserver:80")
	ctx := context.Background()
	body := []byte("hello")
	cookie := ""
	for i := 0; i < 64; i++ {
		r, err := proxy.Route(ctx, "/echo", cookie, body)
		if err != nil {
			t.Fatal(err)
		}
		cookie = r.Cookie
	}
	n := testing.AllocsPerRun(300, func() {
		r, err := proxy.Route(ctx, "/echo", cookie, body)
		if err != nil {
			t.Fatal(err)
		}
		cookie = r.Cookie
	})
	t.Logf("webtier full path (echo): %.1f allocs/request", n)
	if n > 10 {
		t.Fatalf("webtier echo path allocates %.1f/request, gate is 10", n)
	}
}

// TestAllocGateWebtierSessionWrite pins the same path with a session write,
// which adds the synchronous batched replication flush to the secondary.
// Every call is a different live session, so nothing keyed on the cookie
// can be warm: a cache in front of the parser or the table would show.
func TestAllocGateWebtierSessionWrite(t *testing.T) {
	c := allocGateCluster(t)
	n := routeAllocs(t, c.ProxyPlugin("webserver:80"), "/count", nil, 512)
	t.Logf("webtier full path (session write + replication): %.1f allocs/request", n)
	if n > 18 {
		t.Fatalf("webtier session-write path allocates %.1f/request, gate is 18", n)
	}
}

// TestAllocGateServletDirect pins the engine boundary on its own — no
// webtier, no RMI hop. The echo path must be allocation-free; the
// session-write path pays only for the replication delta.
func TestAllocGateServletDirect(t *testing.T) {
	c := allocGateCluster(t)
	eng := c.Servers[0].Web
	body := []byte("hello")

	resp := eng.Serve("/echo", "", body)
	cookie := resp.Cookie
	for i := 0; i < 64; i++ {
		cookie = eng.Serve("/echo", cookie, body).Cookie
	}
	n := testing.AllocsPerRun(300, func() {
		cookie = eng.Serve("/echo", cookie, body).Cookie
	})
	t.Logf("servlet direct (echo): %.1f allocs/request", n)
	if n > 2 {
		t.Fatalf("servlet echo path allocates %.1f/request, gate is 2", n)
	}

	for i := 0; i < 64; i++ {
		cookie = eng.Serve("/count", cookie, nil).Cookie
	}
	n = testing.AllocsPerRun(300, func() {
		cookie = eng.Serve("/count", cookie, nil).Cookie
	})
	t.Logf("servlet direct (session write + replication): %.1f allocs/request", n)
	if n > 12 {
		t.Fatalf("servlet session-write path allocates %.1f/request, gate is 12", n)
	}
}

// The same gates on the real TCP fabric. Per RPC hop the floor is the
// response body copied for the caller and the stub's *Result; everything
// else on the hop (call slot, inbound task, request buffer, response frame
// and its encoder) is pooled.

// TestAllocGateTransportEcho pins a bare Transport.Call at 3 allocations:
// the caller-owned response body plus the two this test's handler makes
// itself (E27 measured 7.0 before the hop was pooled).
func TestAllocGateTransportEcho(t *testing.T) {
	cl, srv := listenTCP(t), listenTCP(t)
	srv.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{Body: []byte("ok")} })
	ctx := context.Background()
	body := make([]byte, 128)
	call := func() {
		if _, err := cl.Call(ctx, srv.Addr(), wire.Frame{Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		call()
	}
	n := testing.AllocsPerRun(500, call)
	t.Logf("transport echo: %.1f allocs/call", n)
	if n > 3 {
		t.Fatalf("bare Transport.Call allocates %.1f/call, gate is 3", n)
	}
}

// routeLoop returns one proxy.Route on path, taking turns over sessions live
// sessions (each follows its own cookie), every one of them already warmed
// by warm requests.
func routeLoop(t *testing.T, proxy *webtier.ProxyPlugin, path string, body []byte, sessions, warm int) func() {
	t.Helper()
	ctx := context.Background()
	cookies := make([]string, sessions)
	i := 0
	route := func() {
		r, err := proxy.Route(ctx, path, cookies[i%sessions], body)
		if err != nil {
			t.Fatal(err)
		}
		cookies[i%sessions] = r.Cookie
		i++
	}
	for j := 0; j < sessions*warm; j++ {
		route()
	}
	return route
}

// routeAllocs measures one proxy.Route on path over warmed sessions.
func routeAllocs(t *testing.T, proxy *webtier.ProxyPlugin, path string, body []byte, sessions int) float64 {
	t.Helper()
	return testing.AllocsPerRun(300, routeLoop(t, proxy, path, body, sessions, 128/sessions+2))
}

// TestAllocGateTCPEcho pins proxy → TCP → servlet echo at measured (2.0:
// the hop's floor and nothing else) + 2.
func TestAllocGateTCPEcho(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/echo", func(r *servlet.Request) servlet.Response { return servlet.Response{Body: r.Body} })
	n := routeAllocs(t, c.proxy, "/echo", []byte("hello"), 1)
	t.Logf("TCP full path (echo): %.1f allocs/request", n)
	if n > 4 {
		t.Fatalf("TCP echo path allocates %.1f/request, gate is 4", n)
	}
}

// TestAllocGateTCPSessionWrite pins the same path with a session write — a
// second TCP hop ships the delta to the secondary before the reply — at
// measured (6.0) + 2, every call a different live session as in
// TestAllocGateWebtierSessionWrite. It was 7.0 while Member.Lookup cloned
// the secondary's MemberInfo to hand the replication flush an address.
func TestAllocGateTCPSessionWrite(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/count", func(r *servlet.Request) servlet.Response {
		r.Session.Set("n", "1")
		return servlet.Response{Body: []byte("ok")}
	})
	n := routeAllocs(t, c.proxy, "/count", nil, 512)
	t.Logf("TCP full path (session write + replication): %.1f allocs/request", n)
	if n > 8 {
		t.Fatalf("TCP session-write path allocates %.1f/request, gate is 8", n)
	}
}

// routeBytes is routeAllocs for the wire: bytes per routed request that all
// four nodes put on their sockets, from transport.bytes.out. The warm-up is
// long enough that every connection's correlation ids are two bytes, as
// they are for all but the first 127 calls of a connection's life.
func routeBytes(t *testing.T, c *tcpCluster, path string, body []byte) float64 {
	t.Helper()
	route := routeLoop(t, c.proxy, path, body, 1, 200)
	const n = 300
	before := c.bytesOut()
	for i := 0; i < n; i++ {
		route()
	}
	// The last response is counted just after it is queued, which the
	// caller may be ahead of; the servers are idle a moment later.
	time.Sleep(10 * time.Millisecond)
	return float64(c.bytesOut()-before) / n
}

// TestWireGateTCPEcho pins what one echo request costs between the proxy
// and its server at measured (83 B) + 4. Field by field:
//
//	request, 69 B: frame length 1, kind 1, correlation id 2, service
//	wls.http 1 and method request 1 (one-byte codes), txID and convID 2,
//	args length 1, path /echo 6, cookie 48 (47 characters), body hello 6
//	reply, 14 B: frame length 1, kind 1, correlation id 2, rmi status 1,
//	result length 1, servlet status 200 2, body hello 6
//
// The reply names no server (the proxy called it) and no cookie (the one it
// sent). It was 108 B while both names were spelled out (17 B) and the reply
// carried served-by (9 B) and an empty error message, and 174 B with the
// fixed 13-byte frame header and the cookie echoed (DESIGN.md "The bytes of
// a hop" has the tables).
func TestWireGateTCPEcho(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/echo", func(r *servlet.Request) servlet.Response { return servlet.Response{Body: r.Body} })
	n := routeBytes(t, c, "/echo", []byte("hello"))
	t.Logf("TCP full path (echo): %.1f B/request", n)
	if n > 87 {
		t.Fatalf("TCP echo path puts %.1f B/request on the wire, gate is 87", n)
	}
}

// TestWireGateTCPSessionWrite pins the same path with a session write at
// measured (114 B) + 4. Field by field:
//
//	request, 65 B: as the echo's, with path /count 7 and an empty body 1
//	reply, 11 B: header 4, rmi status 1, result length 1, servlet status 2,
//	body ok 3
//	delta to the secondary, 32 B: header 4, service wls.http 1 and method
//	session.update.batch 1 (codes), txID and convID 2, args length 1, then
//	22 B of session id, generation and the attribute
//	its acknowledgement, 6 B: header 4, rmi status 1, empty result 1
//
// It was 177 B with the names spelled (30 B on the delta) and served-by in
// both replies, and 261 B before that.
func TestWireGateTCPSessionWrite(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/count", func(r *servlet.Request) servlet.Response {
		r.Session.Set("n", "1")
		return servlet.Response{Body: []byte("ok")}
	})
	n := routeBytes(t, c, "/count", nil)
	t.Logf("TCP full path (session write + replication): %.1f B/request", n)
	if n > 118 {
		t.Fatalf("TCP session-write path puts %.1f B/request on the wire, gate is 118", n)
	}
}

// TestAllocGateMemberLookup pins the address lookup the replication path
// makes per request (replBatcher.flush, ring-placed replicas on session
// creation) at zero: it is served from the membership view's memoized
// snapshot, for self and for a peer alike.
func TestAllocGateMemberLookup(t *testing.T) {
	c := allocGateCluster(t)
	m := c.Servers[0].Member()
	for _, name := range []string{"server-1", "server-2"} {
		n := testing.AllocsPerRun(300, func() {
			if info, ok := m.Lookup(name); !ok || info.Addr == "" {
				t.Fatalf("Lookup(%s) = %+v, %v", name, info, ok)
			}
		})
		if n != 0 {
			t.Fatalf("Member.Lookup(%s) allocates %.1f/call, want 0", name, n)
		}
	}
}

// TestAllocGateDurableCheckout pins the durable commit path: one
// transaction inserting an order in one WAL-backed store and updating a
// stock row in another, two-phase committed over a file transaction log —
// the benchmark's /checkout without the request path. Measured 26.0
// (of which the application's two field maps and order key are 5); it was
// 28.0 while each staged write cloned its field map into a map (two
// allocations) rather than a sorted list (one), and 79 before the commit
// path was pooled.
func TestAllocGateDurableCheckout(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) *store.Store {
		w, err := kv.OpenWAL(filepath.Join(dir, name+".db"), kv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(name, vclock.System, w)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	orders, inventory := open("orders"), open("inventory")
	tlog, err := tx.OpenFileLog(filepath.Join(dir, "tlog"), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tlog.Close() })
	mgr := tx.NewManager("s1", vclock.System, tlog, nil)
	inventory.Put("stock", "sku-1", map[string]string{"qty": "100"})

	n := 0
	checkout := func() {
		n++
		key := "o-" + strconv.Itoa(n)
		txn := mgr.Begin(0)
		so := orders.Session(txn.ID())
		so.Insert("orders", key, map[string]string{"sku": "sku-1", "session": "s"})
		si := inventory.Session(txn.ID())
		si.Update("stock", "sku-1", map[string]string{"last": key})
		if err := txn.Enlist("orders", so); err != nil {
			t.Fatal(err)
		}
		if err := txn.Enlist("inventory", si); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		checkout()
	}
	got := testing.AllocsPerRun(300, checkout)
	mgr.Drain()
	t.Logf("durable two-store checkout: %.1f allocs/commit", got)
	if got > 28 {
		t.Fatalf("durable checkout allocates %.1f/commit, gate is 28", got)
	}
}

// TestAllocGateSessionFootprint pins what a resident session costs: 8 192
// replicated sessions holding two short attributes, live heap after two
// collections, divided by the count — both copies (primary record and
// secondary replica) and both session-table entries. Measured
// 417 B/session, pinned at that + 10 %. Created after 4 096 others, which is
// how earlier figures were taken, it is 456 B; it was 584 B while each
// primary kept its encoded cookie and the placement sat in loose fields, and
// 1 127 B with a map[string]string per copy (DESIGN.md "Session state" has
// the breakdown).
func TestAllocGateSessionFootprint(t *testing.T) {
	c := allocGateCluster(t)
	for _, s := range c.Servers {
		s.Web.Handle("/cart", func(r *servlet.Request) servlet.Response {
			r.Session.Set("n", "12")
			r.Session.Set("item", string(r.Body))
			return servlet.Response{}
		})
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	create := func(n int) {
		body := []byte("sku-0042")
		for i := 0; i < n; i++ {
			if resp := c.Servers[i%len(c.Servers)].Web.Serve("/cart", "", body); resp.Status != 200 {
				t.Fatalf("session %d: status %d", i, resp.Status)
			}
		}
	}
	const sessions = 8192
	before := liveHeap()
	create(sessions)
	per := float64(liveHeap()-before) / sessions
	resident := 0
	for _, s := range c.Servers {
		resident += s.Web.Sessions().ResidentSessions()
	}
	if resident != 2*sessions {
		t.Fatalf("%d copies resident, want %d", resident, 2*sessions)
	}
	t.Logf("replicated session, two short attributes: %.0f B resident (both copies)", per)
	if per > 459 {
		t.Fatalf("a resident session costs %.0f B, gate is 459", per)
	}
}
