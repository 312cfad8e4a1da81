package wls_test

// A Response's Cookie is the cookie the client must store now, empty when
// the one it sent still holds, and the reply of the RMI surface carries it
// only then (servlet.AppendResponse). These tests run one scripted client
// against the simulated fabric and against real TCP with a decorator on the
// router's node that keeps every reply frame, and check both sides of the
// rule on every request: the frame carries a cookie exactly when the cookie
// changed, and the router returns a cookie exactly when the frame carries
// one. The client keeps the cookie it sent unless a reply names a new one.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"wls"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/webtier"
	"wls/internal/wire"
)

// replyTap is an rmi.Node that remembers the last reply frame it was handed.
type replyTap struct {
	rmi.Node
	mu   sync.Mutex
	last []byte
}

func (n *replyTap) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	resp, err := n.Node.Call(ctx, to, f)
	if err == nil {
		n.mu.Lock()
		n.last = append(n.last[:0], resp.Body...)
		n.mu.Unlock()
	}
	return resp, err
}

func (n *replyTap) reply() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return bytes.Clone(n.last)
}

// elisionRig is one cluster under the script, on either fabric.
type elisionRig struct {
	tap   *replyTap
	route func(path, cookie string, body []byte) (servlet.Response, error)
	kill  func(server string)
	join  func()                                     // one more server, converged
	keep  string                                     // the server the router's view comes from: never killed
	serve func(path, cookie string) servlet.Response // straight into a live engine, no RMI surface
}

func elisionHandlers(handle func(path string, h servlet.HandlerFunc)) {
	handle("/echo", func(r *servlet.Request) servlet.Response { return servlet.Response{Body: r.Body} })
	handle("/bump", func(r *servlet.Request) servlet.Response {
		r.Session.Set("n", r.Session.Get("n")+"x")
		return servlet.Response{Body: r.Body}
	})
}

func netsimRig(t *testing.T, mode servlet.SessionMode) *elisionRig {
	t.Helper()
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true, Sessions: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	deploy := func(s *wls.Server) { elisionHandlers(s.Web.Handle) }
	for _, s := range c.Servers {
		deploy(s)
	}
	c.AwaitConverged()
	tap := &replyTap{Node: c.Net().Endpoint("webserver:80")}
	proxy := webtier.NewProxyPlugin(tap, rmi.MemberView{Member: c.Servers[0].Member()}, nil)
	return &elisionRig{
		tap: tap,
		route: func(path, cookie string, body []byte) (servlet.Response, error) {
			return proxy.Route(context.Background(), path, cookie, body)
		},
		kill: c.Crash,
		join: func() {
			s, err := c.AddServer()
			if err != nil {
				t.Fatal(err)
			}
			deploy(s)
			c.AwaitConverged()
		},
		keep: c.Servers[0].Name,
		serve: func(path, cookie string) servlet.Response {
			return c.Servers[0].Web.ServeCtx(context.Background(), path, cookie, nil)
		},
	}
}

func tcpRig(t *testing.T, mode servlet.SessionMode) *elisionRig {
	t.Helper()
	tap := &replyTap{}
	c := newTCPClusterWith(t, tcpConfig{sessions: mode, ring: true, wrapProxy: func(n rmi.Node) rmi.Node {
		tap.Node = n
		return tap
	}})
	elisionHandlers(c.handle)
	return &elisionRig{
		tap: tap,
		route: func(path, cookie string, body []byte) (servlet.Response, error) {
			return c.proxy.Route(context.Background(), path, cookie, body)
		},
		kill: c.kill,
		join: func() { c.start(); c.converge() },
		keep: c.servers[0].name,
		serve: func(path, cookie string) servlet.Response {
			return c.servers[0].engine.ServeCtx(context.Background(), path, cookie, nil)
		},
	}
}

var elisionFabrics = []struct {
	name string
	rig  func(*testing.T, servlet.SessionMode) *elisionRig
}{{"netsim", netsimRig}, {"tcp", tcpRig}}

// step routes one request and holds it to the rule: the router returns a
// cookie exactly when the reply frame carries the session's, and never the
// one that was sent.
func (r *elisionRig) step(t *testing.T, path, cookie string, body []byte) servlet.Response {
	t.Helper()
	resp, err := r.route(path, cookie, body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("%s: status %d, body %q, cookie %q", path, resp.Status, resp.Body, resp.Cookie)
	}
	held := resp.Cookie
	if held == "" {
		held = cookie
	}
	if c, err := servlet.DecodeCookie(held); err != nil || (c.Primary != "" && c.Primary != resp.ServedBy) {
		t.Fatalf("%s: cookie %+v (err %v) from a reply served by %s", path, c, err, resp.ServedBy)
	}
	carried := bytes.Contains(r.tap.reply(), []byte(held))
	if named := resp.Cookie != ""; carried != named || resp.Cookie == cookie && named {
		t.Fatalf("%s: sent %q, returned %q, carried in the reply frame = %v (%d-byte frame)", path, cookie, resp.Cookie, carried, len(r.tap.reply()))
	}
	return resp
}

// create opens a session whose primary is not the server the router's view
// comes from, so the script may kill it.
func (r *elisionRig) create(t *testing.T) servlet.Response {
	t.Helper()
	for i := 0; i < 8; i++ {
		resp := r.step(t, "/echo", "", []byte("hello"))
		if resp.ServedBy != r.keep {
			return resp
		}
	}
	t.Fatal("round robin never left " + r.keep)
	return servlet.Response{}
}

func TestCookieElisionReplicated(t *testing.T) {
	for _, fabric := range elisionFabrics {
		t.Run(fabric.name, func(t *testing.T) {
			r := fabric.rig(t, servlet.SessionsReplicated)
			body := []byte("hello")

			// Creation: nothing sent, the new cookie comes back in full.
			created := r.create(t)
			cookie := created.Cookie
			full := len(r.tap.reply())

			// Steady state: the frame is the creation reply less the cookie
			// field (a length byte and the cookie), and Route names none.
			for i := 0; i < 100; i++ {
				path := "/echo"
				if i%2 == 1 {
					path = "/bump" // a session write changes the state, not the cookie
				}
				resp := r.step(t, path, cookie, body)
				if resp.Cookie != "" || resp.ServedBy != created.ServedBy {
					t.Fatalf("steady request %d: cookie %q from %s, want none from %s", i, resp.Cookie, resp.ServedBy, created.ServedBy)
				}
				if got, want := len(r.tap.reply()), full-1-len(cookie); got != want {
					t.Fatalf("steady request %d: %d-byte reply frame, want %d (%d with the cookie)", i, got, want, full)
				}
			}

			// A URL-rewritten token and no Cookie header: the reply's cookie
			// is compared with the header, which is empty, so the reply
			// names it. (The plug-in routes on the header alone, so the
			// request lands anywhere and the session moves there, Fig 3:
			// same session, new primary. It is written first, so that its
			// secondary holds a copy to fetch.)
			other := r.step(t, "/bump", "", body).Cookie
			viaURL := r.step(t, servlet.EncodeURL("/echo", other), "", body)
			a, _ := servlet.DecodeCookie(other)
			if b, _ := servlet.DecodeCookie(viaURL.Cookie); b.ID != a.ID {
				t.Fatalf("URL-rewritten token: session %q, want %q", b.ID, a.ID)
			}
			// Token and Cookie header both: the header is what was sent, and
			// it still holds.
			if resp := r.step(t, servlet.EncodeURL("/echo", viaURL.Cookie), viaURL.Cookie, body); resp.Cookie != "" {
				t.Fatalf("URL-rewritten token beside the cookie: cookie %q, want none", resp.Cookie)
			}

			// An error reply names no cookie: the client keeps the one it sent.
			if resp, err := r.route("/nope", cookie, nil); err != nil || resp.Status != 404 || resp.Cookie != "" {
				t.Fatalf("404 with a cookie: %+v, %v", resp, err)
			}

			// A server joins: the ring moves some secondaries. Each session
			// whose secondary moved gets its new cookie in full, once.
			cookies := []string{cookie}
			for i := 0; i < 63; i++ {
				cookies = append(cookies, r.step(t, "/bump", "", body).Cookie)
			}
			r.join()
			moved := 0
			for i, old := range cookies {
				resp := r.step(t, "/bump", old, body)
				if resp.Cookie != "" {
					moved++
					was, _ := servlet.DecodeCookie(old)
					now, _ := servlet.DecodeCookie(resp.Cookie)
					if now.ID != was.ID || now.Primary != was.Primary || now.Secondary == was.Secondary {
						t.Fatalf("session %d after the join: %+v -> %+v", i, was, now)
					}
					cookies[i] = resp.Cookie
				}
				if again := r.step(t, "/echo", cookies[i], body); again.Cookie != "" {
					t.Fatalf("session %d: cookie changed twice for one join", i)
				}
			}
			if moved == 0 || moved == len(cookies) {
				t.Fatalf("the join moved the secondary of %d of %d sessions", moved, len(cookies))
			}
			cookie = cookies[0]

			// The primary dies (Fig 2): the secondary promotes itself and
			// says so in full; the client follows, and the next reply is
			// short again and names no cookie.
			was, _ := servlet.DecodeCookie(cookie)
			r.kill(was.Primary)
			promoted := r.step(t, "/bump", cookie, body)
			now, _ := servlet.DecodeCookie(promoted.Cookie)
			if promoted.ServedBy != was.Secondary || now.ID != was.ID || now.Primary != was.Secondary {
				t.Fatalf("after killing %s: served by %s with cookie %+v, was %+v", was.Primary, promoted.ServedBy, now, was)
			}
			for i := 0; i < 3; i++ {
				if resp := r.step(t, "/echo", promoted.Cookie, body); resp.Cookie != "" {
					t.Fatalf("after the promotion: cookie %q, want none", resp.Cookie)
				}
			}
		})
	}
}

// TestCookieElisionClientCookie: with the state in the cookie, a request
// that writes gets a new cookie every time, in full every time; one that
// only reads gets the short reply and no cookie, routed or served directly.
func TestCookieElisionClientCookie(t *testing.T) {
	for _, fabric := range elisionFabrics {
		t.Run(fabric.name, func(t *testing.T) {
			r := fabric.rig(t, servlet.SessionsClientCookie)
			body := []byte("hello")
			cookie := r.step(t, "/bump", "", body).Cookie
			for i := 0; i < 20; i++ {
				resp := r.step(t, "/bump", cookie, body)
				if resp.Cookie == "" {
					t.Fatalf("request %d wrote the session and kept its cookie", i)
				}
				// What the RMI surface returned is what the engine returns
				// when asked directly.
				if direct := r.serve("/bump", cookie); direct.Cookie != resp.Cookie {
					t.Fatalf("request %d: routed cookie %q, direct %q", i, resp.Cookie, direct.Cookie)
				}
				cookie = resp.Cookie
			}
			if resp := r.step(t, "/echo", cookie, body); resp.Cookie != "" {
				t.Fatalf("a read changed the cookie: %q -> %q", cookie, resp.Cookie)
			}
			if direct := r.serve("/echo", cookie); direct.Cookie != "" {
				t.Fatalf("a read served directly changed the cookie: %q -> %q", cookie, direct.Cookie)
			}
		})
	}
}

// TestCookieElisionOtherRouters: the appliance and the DNS clients go
// through the same call, and neither routes on cookies; one they cannot
// parse is forwarded as such, so they also see the engine's answer to a
// cookie it cannot read.
func TestCookieElisionOtherRouters(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for _, s := range c.Servers {
		elisionHandlers(s.Web.Handle)
	}
	c.AwaitConverged()
	view := rmi.MemberView{Member: c.Servers[0].Member()}
	lbTap := &replyTap{Node: c.Net().Endpoint("appliance:80")}
	dnsTap := &replyTap{Node: c.Net().Endpoint("clients:0")}
	lb, dns := webtier.NewExternalLB(lbTap, view, nil), webtier.NewDNSClients(dnsTap, view)
	ctx := context.Background()
	for name, r := range map[string]*elisionRig{
		"external-lb": {tap: lbTap, route: func(path, cookie string, body []byte) (servlet.Response, error) {
			return lb.Route(ctx, "client-1", path, cookie, body)
		}},
		"dns": {tap: dnsTap, route: func(path, cookie string, body []byte) (servlet.Response, error) {
			return dns.Route(ctx, "client-1", path, cookie, body)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			body := []byte("hello")
			created := r.step(t, "/echo", "", body)
			for i := 0; i < 10; i++ {
				if resp := r.step(t, "/bump", created.Cookie, body); resp.Cookie != "" || resp.ServedBy != created.ServedBy {
					t.Fatalf("request %d: cookie %q from %s, want none from %s", i, resp.Cookie, resp.ServedBy, created.ServedBy)
				}
			}
			// Sticky routers bring a URL-rewritten token back to the
			// primary: the cookie has not changed, but no Cookie header
			// carried it, so the reply does.
			if resp := r.step(t, servlet.EncodeURL("/echo", created.Cookie), "", body); resp.Cookie != created.Cookie {
				t.Fatalf("URL-rewritten token: cookie %q, want %q", resp.Cookie, created.Cookie)
			}
			for path, want := range map[string]int{"/nope": 404, "/echo": 400} {
				sent := created.Cookie
				if want == 400 {
					sent = "not-a-cookie"
				}
				if resp, err := r.route(path, sent, nil); err != nil || resp.Status != want || resp.Cookie != "" || resp.ServedBy != created.ServedBy {
					t.Fatalf("%s with cookie %q: %+v, %v; want status %d from %s and no cookie", path, sent, resp, err, want, created.ServedBy)
				}
			}
		})
	}
}
