package webtier_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/simtest"
	"wls/internal/vclock"
	"wls/internal/webtier"
	"wls/internal/wire"
)

// countingNode counts the attempts a router's stub makes, per member.
type countingNode struct {
	rmi.Node
	mu    sync.Mutex
	calls map[string]int // by address
}

func (n *countingNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	n.mu.Lock()
	n.calls[to]++
	n.mu.Unlock()
	return n.Node.Call(ctx, to, f)
}

func (n *countingNode) count(addr string) (to, total int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for a, c := range n.calls {
		total += c
		if a == addr {
			to = c
		}
	}
	return to, total
}

func (n *countingNode) reset() {
	n.mu.Lock()
	n.calls = map[string]int{}
	n.mu.Unlock()
}

// failTier is a tier whose routers dial through a countingNode and whose
// engines serve /lose: it counts its runs per server, and the first run
// cuts the link back to the router, so its reply is lost.
type failTier struct {
	*tier
	node *countingNode
	mu   sync.Mutex
	runs map[string]int
	lost atomic.Bool
}

func newFailTier(t *testing.T) *failTier {
	ft := &failTier{tier: newTier(t, 3), runs: map[string]int{}}
	ft.node = &countingNode{Node: ft.tier.node, calls: map[string]int{}}
	for i, e := range ft.engines {
		s := ft.f.Servers[i]
		e.Handle("/lose", func(r *servlet.Request) servlet.Response {
			ft.mu.Lock()
			ft.runs[s.Name]++
			ft.mu.Unlock()
			if ft.lost.CompareAndSwap(false, true) {
				ft.f.Net.SetPartitioned(ft.tier.node.Addr(), s.Endpoint.Addr(), true)
			}
			return servlet.Response{Body: []byte("ran")}
		})
	}
	return ft
}

func (ft *failTier) addr(server string) string { return ft.f.Server(server).Endpoint.Addr() }

func (ft *failTier) refuse(server string, broken bool) {
	ft.f.Net.SetPartitioned(ft.tier.node.Addr(), ft.addr(server), broken)
}

func (ft *failTier) ran(server string) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.runs[server]
}

// route is one router under test: the Fig 2 plug-in, or the Fig 3
// appliance for one client.
type route func(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error)

// failingOver is a router that fails over within a call, and where a
// session's requests go first: the cookie's primary, the client's affinity.
type failingOver struct {
	route route
	first func(cookie string) string
}

// routers builds, on ft's counting node, each router that fails over
// within a call.
func routers(ft *failTier) map[string]failingOver {
	p := webtier.NewProxyPlugin(ft.node, ft.view, nil)
	lb := webtier.NewExternalLB(ft.node, ft.view, nil)
	return map[string]failingOver{
		"proxy": {p.Route, func(cookie string) string {
			c, _ := servlet.DecodeCookie(cookie)
			return c.Primary
		}},
		"external-lb": {func(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error) {
			return lb.Route(ctx, "client-1", path, cookie, body)
		}, func(string) string { return lb.AffinityOf("client-1") }},
	}
}

// TestRouterFailureRows holds the routers that fail over within a call to
// the stub's rule, row by row: a refused first target is attempted once
// and the request is served elsewhere; a lost reply moves on too, because
// the routers' stub declares "request" idempotent — the handler has then
// run on both members.
func TestRouterFailureRows(t *testing.T) {
	for _, name := range []string{"proxy", "external-lb"} {
		t.Run(name+"/refused", func(t *testing.T) {
			ft := newFailTier(t)
			r := routers(ft)[name]
			ctx := context.Background()
			resp, err := r.route(ctx, "/count", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			first := r.first(resp.Cookie)
			ft.refuse(first, true)
			ft.node.reset()
			resp, err = r.route(ctx, "/count", resp.Cookie, nil)
			if err != nil {
				t.Fatal(err)
			}
			if to, total := ft.node.count(ft.addr(first)); to != 1 || total != 2 {
				t.Fatalf("attempts: %d to %s, %d in all; want 1 and 2", to, first, total)
			}
			if resp.ServedBy == first || string(resp.Body) != "2" {
				t.Fatalf("served by %s (%q); want another member, count 2", resp.ServedBy, resp.Body)
			}
		})
		t.Run(name+"/lost reply", func(t *testing.T) {
			ft := newFailTier(t)
			r := routers(ft)[name]
			ctx := context.Background()
			resp, err := r.route(ctx, "/count", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			first := r.first(resp.Cookie)
			ft.node.reset()
			resp, err = r.route(ctx, "/lose", resp.Cookie, nil)
			if err != nil {
				t.Fatal(err)
			}
			if to, total := ft.node.count(ft.addr(first)); to != 1 || total != 2 {
				t.Fatalf("attempts: %d to %s, %d in all; want 1 and 2", to, first, total)
			}
			if resp.ServedBy == first || ft.ran(first) != 1 || ft.ran(resp.ServedBy) != 1 {
				t.Fatalf("served by %s; runs on %s %d, there %d; want another member, one run each",
					resp.ServedBy, first, ft.ran(first), ft.ran(resp.ServedBy))
			}
		})
	}
}

// TestRoutersAnswerAMalformedCookieWith400 sends every router a cookie
// that is not base64 and one whose id is 5 bytes: each forwards it
// unparsed, and the engine answers 400.
func TestRoutersAnswerAMalformedCookieWith400(t *testing.T) {
	tr := newTier(t, 3)
	p := webtier.NewProxyPlugin(tr.node, tr.view, nil)
	lb := webtier.NewExternalLB(tr.node, tr.view, nil)
	d := webtier.NewDNSClients(tr.node, tr.view)
	routes := map[string]route{
		"proxy": p.Route,
		"external-lb": func(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error) {
			return lb.Route(ctx, "client-1", path, cookie, body)
		},
		"dns": func(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error) {
			return d.Route(ctx, "client-1", path, cookie, body)
		},
	}
	cookies := map[string]string{
		"not base64": "%%not-base64%%",
		"5-byte id":  servlet.Cookie{ID: "abcde", Primary: "server-1", Secondary: "server-2"}.Encode(),
	}
	for rname, r := range routes {
		for cname, cookie := range cookies {
			resp, err := r(context.Background(), "/count", cookie, nil)
			if err != nil || resp.Status != 400 {
				t.Errorf("%s, cookie %s: status %d, err %v; want 400 and no error", rname, cname, resp.Status, err)
			}
		}
	}
}

// TestRouterFailoversPayTheSharedBudget leaves a plug-in one retry token,
// with breakers on a frozen clock, which never cool down: the first refused
// primary is served by its secondary for the token; the next failover is
// denied, and the primary's refusals open its breaker. While it is open,
// the primary's own sessions still go to it first, so they do not move,
// and new sessions skip it.
func TestRouterFailoversPayTheSharedBudget(t *testing.T) {
	ft := newFailTier(t)
	reg := metrics.NewRegistry()
	res := rmi.NewResilience(0, simtest.FrozenClock{Virtual: vclock.NewVirtualAtZero()}, reg)
	p := webtier.NewProxyPlugin(ft.node, ft.view, nil)
	p.SetResilience(res)
	ctx := context.Background()

	// Three sessions on each member; P is the primary of the first.
	var onP []servlet.Cookie
	var raw []string
	for i := 0; i < 9; i++ {
		resp, err := p.Route(ctx, "/count", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := servlet.DecodeCookie(resp.Cookie)
		if len(onP) == 0 || c.Primary == onP[0].Primary {
			onP, raw = append(onP, c), append(raw, resp.Cookie)
		}
	}
	if len(onP) != 3 {
		t.Fatalf("%d of 9 new sessions on %s, want 3", len(onP), onP[0].Primary)
	}
	P := onP[0].Primary
	retries, denied := reg.Counter("rmi.retries"), reg.Counter("rmi.retry.denied")
	// Spend the full bucket down to one token.
	for tokens := reg.Gauge("rmi.retry.tokens"); tokens.Value() > 1; {
		res.SpendRetry()
	}
	spent := retries.Value()

	ft.refuse(P, true)
	resp, err := p.Route(ctx, "/count", raw[0], nil)
	if err != nil || resp.ServedBy != onP[0].Secondary {
		t.Fatalf("first failover: served by %q, err %v; want the secondary %s", resp.ServedBy, err, onP[0].Secondary)
	}
	if retries.Value() != spent+1 {
		t.Fatalf("rmi.retries = %d after one failover, want %d", retries.Value(), spent+1)
	}
	var refusals int64
	for n := 1; res.State(P) != rmi.BreakerOpen; n++ {
		if n == 10 {
			t.Fatalf("%s's breaker is %s after %d refusals, want open", P, res.State(P), n)
		}
		if _, err := p.Route(ctx, "/count", raw[1], nil); err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
			t.Fatalf("failover %d: err %v; want the retry budget exhausted", n+1, err)
		}
		refusals++
	}
	if denied.Value() != refusals {
		t.Fatalf("rmi.retry.denied = %d, want one per refused failover, %d", denied.Value(), refusals)
	}

	ft.refuse(P, false)
	for i := 0; i < 6; i++ {
		resp, err := p.Route(ctx, "/count", "", nil)
		if err != nil || resp.ServedBy == P {
			t.Fatalf("new session %d: served by %s, err %v; want a member other than %s", i, resp.ServedBy, err, P)
		}
	}
	resp, err = p.Route(ctx, "/count", raw[2], nil)
	if err != nil || resp.ServedBy != P {
		t.Fatalf("a session of %s while its breaker is open: served by %q, err %v", P, resp.ServedBy, err)
	}
	if retries.Value() != spent+1 || denied.Value() != refusals {
		t.Fatalf("rmi.retries = %d, rmi.retry.denied = %d after the partition healed; want %d and %d", retries.Value(), denied.Value(), spent+1, refusals)
	}
}
