package webtier_test

import (
	"context"
	"strconv"
	"testing"

	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/simtest"
	"wls/internal/webtier"
)

type tier struct {
	f       *simtest.Fixture
	engines []*servlet.Engine
	view    rmi.View
	node    rmi.Node
}

func newTier(t *testing.T, servers int) *tier {
	t.Helper()
	f := simtest.New(simtest.Options{Servers: servers})
	t.Cleanup(f.Stop)
	var engines []*servlet.Engine
	for _, s := range f.Servers {
		e := servlet.NewEngine(s.Registry, servlet.Config{})
		e.Handle("/count", func(r *servlet.Request) servlet.Response {
			n, _ := strconv.Atoi(r.Session.Get("n"))
			n++
			r.Session.Set("n", strconv.Itoa(n))
			return servlet.Response{Body: []byte(strconv.Itoa(n))}
		})
		engines = append(engines, e)
	}
	// The proxy is its own process in the presentation tier with its own
	// endpoint; it observes the cluster through a member-less cached view
	// (here: server-1's view for simplicity of the fixture).
	node := f.Net.Endpoint("webserver:80")
	f.Settle(3)
	return &tier{f: f, engines: engines, view: rmi.MemberView{Member: f.Servers[0].Member}, node: node}
}

// --- Fig 2: proxy plug-in ----------------------------------------------------

func TestProxyCreatesAndSticksToSession(t *testing.T) {
	tr := newTier(t, 3)
	p := webtier.NewProxyPlugin(tr.node, tr.view, nil)
	ctx := context.Background()

	resp, err := p.Route(ctx, "/count", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	first := resp.ServedBy
	cookie := resp.Cookie
	for i := 2; i <= 5; i++ {
		resp, err = p.Route(ctx, "/count", cookie, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ServedBy != first {
			t.Fatalf("session affinity broken: %s then %s", first, resp.ServedBy)
		}
		if string(resp.Body) != strconv.Itoa(i) {
			t.Fatalf("count = %q, want %d", resp.Body, i)
		}
		if resp.Cookie != "" {
			cookie = resp.Cookie
		}
	}
}

func TestProxyBalancesNewSessions(t *testing.T) {
	tr := newTier(t, 3)
	p := webtier.NewProxyPlugin(tr.node, tr.view, nil)
	served := map[string]bool{}
	for i := 0; i < 9; i++ {
		resp, err := p.Route(context.Background(), "/count", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		served[resp.ServedBy] = true
	}
	if len(served) != 3 {
		t.Fatalf("new sessions spread over %d servers, want 3", len(served))
	}
}

func TestProxyFig2Failover(t *testing.T) {
	tr := newTier(t, 3)
	p := webtier.NewProxyPlugin(tr.node, tr.view, nil)
	ctx := context.Background()

	resp, _ := p.Route(ctx, "/count", "", nil)
	cookie := resp.Cookie
	if _, err := p.Route(ctx, "/count", cookie, nil); err != nil {
		t.Fatal(err)
	}
	c, _ := servlet.DecodeCookie(cookie)
	tr.f.Crash(c.Primary)

	// Next request through the plug-in: routed to the secondary, which
	// promotes, recruits a new secondary, and rewrites the cookie.
	resp3, err := p.Route(ctx, "/count", cookie, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp3.Body) != "3" {
		t.Fatalf("state lost across failover: %q", resp3.Body)
	}
	if resp3.ServedBy != c.Secondary {
		t.Fatalf("served by %s, want old secondary %s", resp3.ServedBy, c.Secondary)
	}
	c3, _ := servlet.DecodeCookie(resp3.Cookie)
	if c3.Primary != c.Secondary || c3.Secondary == c.Primary || c3.Secondary == "" {
		t.Fatalf("cookie after failover: %+v", c3)
	}
	// Subsequent requests follow the new pair.
	resp4, err := p.Route(ctx, "/count", resp3.Cookie, nil)
	if err != nil || string(resp4.Body) != "4" {
		t.Fatalf("post-failover: %q err=%v", resp4.Body, err)
	}
}

// --- Fig 3: external load balancer --------------------------------------------

func TestExternalLBAffinity(t *testing.T) {
	tr := newTier(t, 3)
	lb := webtier.NewExternalLB(tr.node, tr.view, nil)
	ctx := context.Background()

	resp, err := lb.Route(ctx, "client-1", "/count", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	first := resp.ServedBy
	if lb.AffinityOf("client-1") != first {
		t.Fatal("affinity not recorded")
	}
	cookie := resp.Cookie
	for i := 2; i <= 4; i++ {
		resp, err = lb.Route(ctx, "client-1", "/count", cookie, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ServedBy != first {
			t.Fatalf("affinity broken: %s", resp.ServedBy)
		}
		if resp.Cookie != "" {
			cookie = resp.Cookie
		}
	}
}

func TestExternalLBFig3Failover(t *testing.T) {
	tr := newTier(t, 3)
	lb := webtier.NewExternalLB(tr.node, tr.view, nil)
	ctx := context.Background()

	resp, _ := lb.Route(ctx, "client-1", "/count", "", nil)
	cookie := resp.Cookie
	if _, err := lb.Route(ctx, "client-1", "/count", cookie, nil); err != nil {
		t.Fatal(err)
	}
	c, _ := servlet.DecodeCookie(cookie)
	tr.f.Crash(c.Primary)

	// The appliance switches affinity to an arbitrary live member; the
	// engine there obtains the state from the secondary named in the
	// cookie and becomes primary, leaving the secondary unchanged.
	resp3, err := lb.Route(ctx, "client-1", "/count", cookie, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp3.Body) != "3" {
		t.Fatalf("state lost: %q", resp3.Body)
	}
	c3, _ := servlet.DecodeCookie(resp3.Cookie)
	if c3.Primary == c.Primary || c3.Primary == "" {
		t.Fatalf("primary after failover: %q", c3.Primary)
	}
	if c3.Primary != c.Secondary && c3.Secondary != c.Secondary {
		t.Fatalf("secondary should persist somewhere in the pair: %+v vs old %+v", c3, c)
	}
	if lb.AffinityOf("client-1") != resp3.ServedBy {
		t.Fatal("affinity not switched")
	}
}

// --- DNS co-listing -------------------------------------------------------------

func TestDNSClientsStickAndRecover(t *testing.T) {
	tr := newTier(t, 3)
	d := webtier.NewDNSClients(tr.node, tr.view)
	ctx := context.Background()

	resp, err := d.Route(ctx, "client-1", "/count", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	first := resp.ServedBy
	cookie := resp.Cookie
	resp, err = d.Route(ctx, "client-1", "/count", cookie, nil)
	if err != nil || resp.ServedBy != first {
		t.Fatalf("client did not stick: %s err=%v", resp.ServedBy, err)
	}

	if resp.Cookie != "" {
		cookie = resp.Cookie
	}

	tr.f.Crash(first)
	// First attempt fails (coarse control: the client sees the failure)...
	if _, err := d.Route(ctx, "client-1", "/count", cookie, nil); err == nil {
		t.Fatal("expected visible failure with DNS routing")
	}
	// ...then re-resolves and recovers via the engine-side Fig 3 flow.
	resp3, err := d.Route(ctx, "client-1", "/count", cookie, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp3.Body) != "3" {
		t.Fatalf("state lost: %q", resp3.Body)
	}
}

func TestDNSClientsSpreadAcrossServers(t *testing.T) {
	tr := newTier(t, 3)
	d := webtier.NewDNSClients(tr.node, tr.view)
	served := map[string]bool{}
	for i := 0; i < 9; i++ {
		resp, err := d.Route(context.Background(), "client-"+strconv.Itoa(i), "/count", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		served[resp.ServedBy] = true
	}
	if len(served) != 3 {
		t.Fatalf("clients spread over %d servers", len(served))
	}
}

func TestProxyNoBackends(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	node := f.Net.Endpoint("webserver:80")
	p := webtier.NewProxyPlugin(node, rmi.MemberView{Member: f.Servers[0].Member}, nil)
	if _, err := p.Route(context.Background(), "/x", "", nil); err == nil {
		t.Fatal("expected ErrNoBackends with no engines deployed")
	}
}
