//go:build !race

package wls_test

// The race runtime drops sync.Pool items at random, so allocation counts
// only mean something without it; `make race` skips this file.

// Allocation gates for the request path. Each test measures the
// allocations per request of one root with allocsPerRun, and each gate is
// the highest value that root reads in 20 of 20 runs
// (`go test -count=20 -cpu 1,4 -run TestAllocGate .`) plus 0.05, rounded
// up to 0.1, and never above the whole number it was pinned at before the
// fraction was kept. The 0.05 — 15 mallocs in a 300-call window — is for
// goroutines the package's other tests leave behind: under `go test ./...`
// a gate that reads exactly 3 alone read 3.003. One more allocation per
// request still fails, and a change that saves one lowers the constant
// with it. The webtier echo is also measured from 64 callers at once,
// under the same gate: allocations per request must not grow with
// concurrency. DESIGN.md "Determinism & lint rules" maps every
// request-path root to the gate that reaches it.

import (
	"context"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"wls"
	"wls/internal/ejb"
	"wls/internal/kv"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/store"
	"wls/internal/tx"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// Allocations per request (per call, per commit) of each gated path.
const (
	gateWebtierEcho         = 3.1
	gateWebtierSessionWrite = 7.1
	gateServletDirectEcho   = 0.0
	gateServletDirectWrite  = 4.1
	gateTransportEcho       = 2.0
	gateTCPEcho             = 0.1
	gateTCPSessionWrite     = 1.1
	gateDurableCheckout     = 10.1
	gateExternalLBEcho      = 3.1
	gateStatelessInvoke     = 4.8
	gateStatefulInvoke      = 9.1
	gateAdmittedEcho        = 3.1
)

// Bytes per routed request on the TCP fabric (TestWireGate*), at measured
// + 4, and the live heap of a resident session (both copies), at measured
// + 10 %.
const (
	gateWireTCPEcho         = 61
	gateWireTCPSessionWrite = 88
	gateSessionFootprint    = 186
	gateBeanFootprint       = 194
)

// allocGate logs what a path measured and fails t when it is over gate,
// naming the constant that holds it.
func allocGate(t *testing.T, what string, got float64, name string, gate float64) {
	t.Helper()
	if got > gate {
		t.Fatalf("%s allocates %.3f, over %s = %v", what, got, name, gate)
	}
	t.Logf("%s: %.3f allocs", what, got)
}

// allocsPerRun is testing.AllocsPerRun without its truncation: on one
// processor, after one warm-up call, the mallocs of runs calls divided by
// runs, fraction kept — a path that allocates 5.67 reads 5.67, not 5.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// callAllocs warms call up and measures it over runs calls.
func callAllocs(runs int, call func()) float64 {
	for i := 0; i < 64; i++ {
		call()
	}
	return allocsPerRun(runs, call)
}

// quiet stops the heartbeats of c's members, once the test has deployed
// and settled: the views stay as they converged, and no beat — one
// allocation per member, the timer of its next tick — lands inside a
// measurement.
func quiet(c *wls.Cluster) {
	for _, s := range c.Servers {
		s.Member().Stop()
	}
}

func allocGateCluster(t *testing.T, opts wls.Options) *wls.Cluster {
	t.Helper()
	opts.Servers, opts.RealClock = 3, true
	c, err := wls.New(opts)
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
// RMI hop, the servlet engine, and session resolution — with tracing
// disabled, from one caller and from 64 at once: pooled requests and
// encoders must hold the count when many requests are in flight.
func TestAllocGateWebtierEcho(t *testing.T) {
	c := allocGateCluster(t, wls.Options{})
	quiet(c)
	route := c.ProxyPlugin("webserver:80").Route
	n := routeAllocs(t, route, "/echo", []byte("hello"), 1)
	allocGate(t, "webtier echo, per request", n, "gateWebtierEcho", gateWebtierEcho)
	n = concurrentRouteAllocs(t, route, "/echo", []byte("hello"), 64)
	allocGate(t, "webtier echo, 64 callers, per request", n, "gateWebtierEcho", gateWebtierEcho)
}

// TestAllocGateWebtierSessionWrite pins the same path with a session write,
// which adds the synchronous batched replication flush to the secondary.
// Every call is a different live session, so nothing keyed on the cookie
// can be warm: a cache in front of the parser or the table would show.
func TestAllocGateWebtierSessionWrite(t *testing.T) {
	c := allocGateCluster(t, wls.Options{})
	quiet(c)
	n := routeAllocs(t, c.ProxyPlugin("webserver:80").Route, "/count", nil, 512)
	allocGate(t, "webtier session write, per request", n, "gateWebtierSessionWrite", gateWebtierSessionWrite)
}

// TestAllocGateExternalLBEcho pins the Fig 3 appliance's echo: affinity
// lookup and refresh, the RMI hop, the servlet engine.
func TestAllocGateExternalLBEcho(t *testing.T) {
	c := allocGateCluster(t, wls.Options{})
	quiet(c)
	lb := c.ExternalLB("lb:80")
	route := func(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error) {
		return lb.Route(ctx, "client-1", path, cookie, body)
	}
	n := routeAllocs(t, route, "/echo", []byte("hello"), 1)
	allocGate(t, "external LB echo, per request", n, "gateExternalLBEcho", gateExternalLBEcho)
}

// TestAllocGateAdmittedEcho pins the proxy echo on a cluster whose servers
// run every request through an execute queue (§2.3) and whose router keeps
// breakers: Gate.Admit, Gate.Done and Resilience.Allow on every request.
func TestAllocGateAdmittedEcho(t *testing.T) {
	c := allocGateCluster(t, wls.Options{
		Admission:  &rmi.QueueConfig{},
		Resilience: true,
	})
	quiet(c)
	n := routeAllocs(t, c.ProxyPlugin("webserver:80").Route, "/echo", []byte("hello"), 1)
	allocGate(t, "admitted echo, per request", n, "gateAdmittedEcho", gateAdmittedEcho)
}

// TestAllocGateServletDirect pins the engine boundary on its own — no
// webtier, no RMI hop. The echo path is allocation-free; the session-write
// path pays only for the replication delta.
func TestAllocGateServletDirect(t *testing.T) {
	c := allocGateCluster(t, wls.Options{})
	quiet(c)
	eng := c.Servers[0].Web
	body := []byte("hello")

	cookie := ""
	serve := func(path string, body []byte) {
		if c := eng.ServeCtx(context.Background(), path, cookie, body).Cookie; c != "" {
			cookie = c
		}
	}
	n := callAllocs(300, func() { serve("/echo", body) })
	allocGate(t, "servlet direct echo, per request", n, "gateServletDirectEcho", gateServletDirectEcho)

	n = callAllocs(300, func() { serve("/count", nil) })
	allocGate(t, "servlet direct session write, per request", n, "gateServletDirectWrite", gateServletDirectWrite)
}

// TestAllocGateStatelessInvoke pins a stateless-bean call (§3.1) through
// its stub: the bean's pool checkout and the RMI hop. The cluster runs on
// the virtual clock, which the measurement does not advance: no heartbeat,
// gossip round or timer runs beside the calls, so the count is theirs
// alone. (On the real clock a beat landing inside the measurement read 6.)
func TestAllocGateStatelessInvoke(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for _, s := range c.Servers {
		s.EJB.DeployStateless(ejb.StatelessSpec{
			Name: "Echo",
			Methods: map[string]ejb.StatelessMethod{
				"echo": func(_ context.Context, call *rmi.Call) ([]byte, error) { return call.Args, nil },
			},
		})
	}
	c.Settle(2)
	stub := c.Servers[0].EJB.StatelessStub("Echo")
	ctx := context.Background()
	args := []byte("hello")
	call := func() {
		if _, err := stub.Invoke(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "stateless invoke, per call", callAllocs(300, call), "gateStatelessInvoke", gateStatelessInvoke)
}

// TestAllocGateStatefulInvoke pins a stateful-bean call (§3.2) that writes
// its conversation: the client handle's stub, the hop, the record's turn
// and the delta shipped to the secondary before the reply.
func TestAllocGateStatefulInvoke(t *testing.T) {
	c := allocGateCluster(t, wls.Options{})
	var home *ejb.StatefulHome
	for _, s := range c.Servers {
		h := s.EJB.DeployStateful(ejb.StatefulSpec{
			Name: "Cart",
			Methods: map[string]ejb.StatefulMethod{
				"add": func(sc *ejb.StatefulCtx, _ []byte) ([]byte, error) {
					sc.Set("n", "1")
					return nil, nil
				},
			},
		})
		if home == nil {
			home = h
		}
	}
	c.Settle(2)
	quiet(c)
	ctx := context.Background()
	h, err := home.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		if _, err := h.Invoke(ctx, "add", nil); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "stateful invoke, per call", callAllocs(300, call), "gateStatefulInvoke", gateStatefulInvoke)
}

// The same gates on the real TCP fabric. An RPC hop allocates nothing
// whole: the stub returns its Result by value, the response body copied
// for the caller is carved from the transport's 2 KiB reply slab (a
// fraction of an allocation per call), a call watches its context only
// once its reply is late, and everything else on the hop (call slot,
// inbound task, request buffer, response frame and its encoder) is pooled.

// TestAllocGateTransportEcho pins a bare Transport.Call: the two objects
// this test's handler makes itself, and the reply slab's fraction.
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
	allocGate(t, "transport echo, per call", callAllocs(500, call), "gateTransportEcho", gateTransportEcho)
}

// router is a front end's Route for one client: a Fig 2 plug-in's, or a
// Fig 3 appliance's bound to a client id.
type router func(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error)

// routeLoop returns one route on path, taking turns over sessions live
// sessions (each follows its own cookie), every one of them already warmed
// by warm requests.
func routeLoop(t *testing.T, route router, path string, body []byte, sessions, warm int) func() {
	t.Helper()
	ctx := context.Background()
	cookies := make([]string, sessions)
	i := 0
	next := func() {
		r, err := route(ctx, path, cookies[i%sessions], body)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cookie != "" {
			cookies[i%sessions] = r.Cookie
		}
		i++
	}
	for j := 0; j < sessions*warm; j++ {
		next()
	}
	return next
}

// routeAllocs measures one route on path over warmed sessions.
func routeAllocs(t *testing.T, route router, path string, body []byte, sessions int) float64 {
	t.Helper()
	return allocsPerRun(300, routeLoop(t, route, path, body, sessions, 128/sessions+2))
}

// concurrentRouteAllocs measures route on path from callers goroutines at
// once, each following its own session, at the test's GOMAXPROCS. A first
// round grows the pools to what callers requests hold at once; the second
// is measured.
func concurrentRouteAllocs(t *testing.T, route router, path string, body []byte, callers int) float64 {
	t.Helper()
	const perCaller = 128
	cookies := make([]string, callers)
	errs := make(chan error, callers)
	round := func() {
		var wg sync.WaitGroup
		for i := range cookies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perCaller; j++ {
					r, err := route(context.Background(), path, cookies[i], body)
					if err != nil {
						errs <- err
						return
					}
					if r.Cookie != "" {
						cookies[i] = r.Cookie
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(callers*perCaller)
}

// TestAllocGateTCPEcho pins proxy → TCP → servlet echo: the hop's floor and
// nothing else.
func TestAllocGateTCPEcho(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/echo", func(r *servlet.Request) servlet.Response { return servlet.Response{Body: r.Body} })
	c.quiet()
	n := routeAllocs(t, c.proxy.Route, "/echo", []byte("hello"), 1)
	allocGate(t, "TCP echo, per request", n, "gateTCPEcho", gateTCPEcho)
}

// TestAllocGateTCPSessionWrite pins the same path with a session write — a
// second TCP hop ships the delta to the secondary before the reply — every
// call a different live session as in TestAllocGateWebtierSessionWrite.
func TestAllocGateTCPSessionWrite(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/count", func(r *servlet.Request) servlet.Response {
		r.Session.Set("n", "1")
		return servlet.Response{Body: []byte("ok")}
	})
	c.quiet()
	n := routeAllocs(t, c.proxy.Route, "/count", nil, 512)
	allocGate(t, "TCP session write, per request", n, "gateTCPSessionWrite", gateTCPSessionWrite)
}

// quiet stops the members' heartbeats, as quiet does for a wls cluster.
func (c *tcpCluster) quiet() {
	for _, s := range c.servers {
		s.member.Stop()
	}
}

// routeBytes is routeAllocs for the wire: bytes per routed request that all
// four nodes put on their sockets, from transport.bytes.out, after a
// warm-up that creates the session. A correlation id is its call's slot on
// the connection, so it is one byte however long the connection has lived
// (TestWireGateIgnoresConnectionAge).
func routeBytes(t *testing.T, c *tcpCluster, path string, body []byte) float64 {
	t.Helper()
	return bytesPerRoute(c, routeLoop(t, c.proxy.Route, path, body, 1, 200))
}

// bytesPerRoute is the mean of what 300 calls of route put on the wire.
func bytesPerRoute(c *tcpCluster, route func()) float64 {
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
// and its server, 57 B, at gateWireTCPEcho. Field by field (wire format 6):
//
//	request, 44 B: frame length 1, kind 1, correlation id 1, service
//	wls.http 1 and method request 1 (one-byte codes), args length 1, path /echo 6, session field 26 (flag 1, id 16,
//	secondary server-N 9; the primary is the callee and is left out),
//	body hello 6
//	reply, 13 B: frame length 1, kind 1, correlation id 1, rmi status 1,
//	result length 1, servlet status 200 2, body hello 6
//
// The reply names no server (the proxy called it) and no cookie (the one it
// sent). DESIGN.md "The bytes of a hop" has the table.
func TestWireGateTCPEcho(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/echo", func(r *servlet.Request) servlet.Response { return servlet.Response{Body: r.Body} })
	n := routeBytes(t, c, "/echo", []byte("hello"))
	t.Logf("TCP full path (echo): %.1f B/request", n)
	if n > gateWireTCPEcho {
		t.Fatalf("TCP echo path puts %.1f B/request on the wire, over gateWireTCPEcho = %d", n, gateWireTCPEcho)
	}
}

// TestWireGateTCPSessionWrite pins the same path with a session write, 84
// B, at gateWireTCPSessionWrite. Field by field (wire format 6):
//
//	request, 40 B: as the echo's, with path /count 7 and an empty body 1
//	reply, 10 B: header 3, rmi status 1, result length 1, servlet status 2,
//	body ok 3
//	delta to the secondary, 29 B: header 3, service wls.http 1 and method
//	session.update.batch 1 (codes), args length 1, then
//	the session id 16 (no length prefix), generation 1 and the attribute 5
//	(count 1, key n 2, value 1 2)
//	its acknowledgement, 5 B: header 3, rmi status 1, empty result 1
func TestWireGateTCPSessionWrite(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/count", func(r *servlet.Request) servlet.Response {
		r.Session.Set("n", "1")
		return servlet.Response{Body: []byte("ok")}
	})
	n := routeBytes(t, c, "/count", nil)
	t.Logf("TCP full path (session write + replication): %.1f B/request", n)
	if n > gateWireTCPSessionWrite {
		t.Fatalf("TCP session-write path puts %.1f B/request on the wire, over gateWireTCPSessionWrite = %d", n, gateWireTCPSessionWrite)
	}
}

// TestWireGateIgnoresConnectionAge: the bytes of a routed echo after 20 000
// more calls of the same session, on the same connection, are the bytes
// after 200. A connection's correlation ids do not grow with its age: each
// call reuses a free one.
func TestWireGateIgnoresConnectionAge(t *testing.T) {
	c := newTCPCluster(t)
	c.handle("/echo", func(r *servlet.Request) servlet.Response { return servlet.Response{Body: r.Body} })
	route := routeLoop(t, c.proxy.Route, "/echo", []byte("hello"), 1, 200)
	young := bytesPerRoute(c, route)
	for i := 0; i < 20000; i++ {
		route()
	}
	old := bytesPerRoute(c, route)
	t.Logf("TCP echo: %.1f B/request after 200 calls, %.1f B after 20 000 more", young, old)
	if old != young {
		t.Fatalf("a routed echo puts %.1f B/request on the wire after 20 000 calls, %.1f B after 200", old, young)
	}
}

// TestAllocGateMemberLookup pins the address lookup the replication path
// makes per request (replBatcher.flush, ring-placed replicas on session
// creation) at zero: it is served from the membership view's memoized
// snapshot, for self and for a peer alike.
func TestAllocGateMemberLookup(t *testing.T) {
	c := allocGateCluster(t, wls.Options{})
	quiet(c)
	m := c.Servers[0].Member()
	for _, name := range []string{"server-1", "server-2"} {
		n := allocsPerRun(300, func() {
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
// the benchmark's /checkout without the request path. The application's
// two field maps and order key are 5 of its allocations.
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
	got := allocsPerRun(300, checkout)
	mgr.Drain()
	allocGate(t, "durable two-store checkout, per commit", got, "gateDurableCheckout", gateDurableCheckout)
}

// TestAllocGateSessionFootprint pins what a resident session costs: 8 192
// replicated sessions holding two short attributes, live heap after two
// collections, divided by the count — both copies (primary record and
// secondary replica) and both session-table entries. Measured
// 175 B/session (169 B before the table was split into a shard per record
// lock stripe); gateSessionFootprint is 169 B + 10 % (DESIGN.md "What a
// resident session costs" has the breakdown).
func TestAllocGateSessionFootprint(t *testing.T) {
	c := allocGateCluster(t, wls.Options{})
	for _, s := range c.Servers {
		s.Web.Handle("/cart", func(r *servlet.Request) servlet.Response {
			r.Session.Set("n", "12")
			r.Session.Set("item", string(r.Body))
			return servlet.Response{}
		})
	}
	create := func(n int) {
		body := []byte("sku-0042")
		for i := 0; i < n; i++ {
			if resp := c.Servers[i%len(c.Servers)].Web.ServeCtx(context.Background(), "/cart", "", body); resp.Status != 200 {
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
	if per > gateSessionFootprint {
		t.Fatalf("a resident session costs %.0f B, over gateSessionFootprint = %d", per, gateSessionFootprint)
	}
}

// TestAllocGateBeanFootprint pins what a stateful bean's conversation
// costs, measured as TestAllocGateSessionFootprint measures a session:
// 8 192 beans created and written once with two short attributes, live
// heap after two collections, divided by the count — both copies of the
// record and both table entries; the client handles are dropped. Measured
// 180 B (176 B with one table); gateBeanFootprint is 176 B + 10 % (DESIGN.md
// "Stateful session beans ride the same records").
func TestAllocGateBeanFootprint(t *testing.T) {
	c := allocGateCluster(t, wls.Options{})
	var home *ejb.StatefulHome
	for _, s := range c.Servers {
		h := s.EJB.DeployStateful(ejb.StatefulSpec{
			Name: "Cart",
			Methods: map[string]ejb.StatefulMethod{
				"add": func(sc *ejb.StatefulCtx, args []byte) ([]byte, error) {
					sc.Set("n", "12")
					sc.Set("item", string(args))
					return nil, nil
				},
			},
		})
		if home == nil {
			home = h
		}
	}
	c.Settle(2)
	ctx := context.Background()
	create := func(n int) {
		for i := 0; i < n; i++ {
			h, err := home.Create(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Invoke(ctx, "add", []byte("sku-0042")); err != nil {
				t.Fatal(err)
			}
		}
	}
	create(64) // the stubs, pools and tables the first calls build
	const beans = 8192
	before := liveHeap()
	create(beans)
	per := float64(liveHeap()-before) / beans
	resident := 0
	for _, s := range c.Servers {
		mem, _ := s.EJB.StatefulStore("Cart").Resident()
		resident += mem
	}
	if want := 2 * (beans + 64); resident != want {
		t.Fatalf("%d copies resident, want %d", resident, want)
	}
	t.Logf("stateful bean, two short attributes: %.0f B resident (both copies)", per)
	if per > gateBeanFootprint {
		t.Fatalf("a resident bean costs %.0f B, over gateBeanFootprint = %d", per, gateBeanFootprint)
	}
}

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
