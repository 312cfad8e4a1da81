// Package webtier implements the presentation tier of §2.1–§2.2 and the
// two routing configurations of Figures 2 and 3:
//
//   - ProxyPlugin — "application server code that resides in the
//     presentation tier, as either a full client-handling process, such as
//     a Web Server, or a plug-in for such a process": it inspects the
//     session cookie and routes to the primary, failing over to the
//     secondary (which promotes itself and rewrites the cookie) — Fig 2.
//   - ExternalLB — a load-balancing appliance: affinity is set up on the
//     first request; on failure affinity switches "to some arbitrary
//     member of the cluster", and the engine there fetches the state from
//     the secondary — Fig 3.
//   - DNSClients — the co-listed-DNS-name alternative, where "the client
//     makes the choice" and sticks with the first server it resolves.
//
// The tier also provides session concentration (§2.1): any number of
// client connections multiplex over the proxy's one node.
package webtier

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"wls/internal/cluster"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/trace"
	"wls/internal/wire"
)

// View supplies the servlet-engine servers (the rmi.View interface).
type View = rmi.View

// ErrNoBackends means no servlet engine is reachable.
var ErrNoBackends = errors.New("webtier: no reachable servlet engine")

// router is what the two routers that fail over within a call share: one
// stub over the engines of view, a tracer, and the routed/failovers
// counters (resolved once: metric-name lookups allocate).
type router struct {
	node              rmi.Node
	view              View
	stub              *rmi.Stub
	tracer            *trace.Tracer
	routed, failovers *metrics.Counter
}

func newRouter(node rmi.Node, view View, reg *metrics.Registry) router {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return router{
		node:      node,
		view:      view,
		stub:      newStub(node, view, nil),
		routed:    reg.Counter("webtier.routed"),
		failovers: reg.Counter("webtier.failovers"),
	}
}

// newStub is the one stub a router sends engine requests through: round
// robin over the engines of view, breakers and retry budget from r when it
// is not nil. It declares "request" idempotent, so any failure but an
// application error moves on; which servlet paths are idempotent is not
// declared yet.
func newStub(node rmi.Node, view View, r *rmi.Resilience) *rmi.Stub {
	opts := []rmi.StubOption{rmi.WithPolicy(rmi.NewRoundRobin()), rmi.WithIdempotent("request")}
	if r != nil {
		opts = append(opts, rmi.WithResilience(r))
	}
	return rmi.NewStub(servlet.ServiceName, node, view, opts...)
}

// SetTracer makes the router start a root span per routed request (wire it
// before serving traffic).
func (r *router) SetTracer(t *trace.Tracer) { r.tracer = t }

// SetResilience gives the router a client-side resilience layer: engine
// calls feed its per-server breakers, failovers spend its retry budget, and
// new sessions skip servers whose breaker is open (wire it before serving
// traffic).
func (r *router) SetResilience(res *rmi.Resilience) { r.stub = newStub(r.node, r.view, res) }

// route sends one request to the members of first, then wherever the
// stub's failover rule takes it; a failover is a request the member it
// went to first did not serve. It is the one encoder of routed engine
// requests: the cookie travels as c, the router's parse of its text (nil:
// it did not parse, and the engine answers 400), in the binary form
// servlet.AppendRequest writes for each callee.
func (r *router) route(ctx context.Context, span *trace.Span, first []cluster.MemberInfo, path, cookie string, c *servlet.CookieRef, body []byte) (servlet.Response, error) {
	res, err := r.stub.InvokeVia(ctx, first, "request", func(e *wire.Encoder, callee string) {
		servlet.AppendRequest(e, path, c, callee, body)
	})
	var resp servlet.Response
	if err == nil {
		resp, err = reply(res, cookie)
	} else {
		err = errors.Join(ErrNoBackends, err)
	}
	if len(first) > 0 && res.ServedBy != first[0].Name {
		r.failovers.Inc()
		span.Annotate("failover-from", first[0].Name)
	}
	if err != nil {
		span.SetError(err)
		return servlet.Response{}, err
	}
	r.routed.Inc()
	span.Annotate("served", res.ServedBy)
	return resp, nil
}

// reply is the one decoder of engine replies, and it holds the request: a
// reply that names no cookie means the one just sent
// (servlet.AppendResponse), and no reply names its server, which is the
// member called — so every router returns the Response it would have with
// both echoed.
func reply(res rmi.Result, cookie string) (servlet.Response, error) {
	resp, err := servlet.DecodeResponseNoCopy(res.Body, cookie)
	resp.ServedBy = res.ServedBy
	return resp, err
}

// parseForward parses a request's cookie for the hop: nil when it does not
// parse, which the engine answers with 400.
func parseForward(cookie string, buf *servlet.CookieBuf) *servlet.CookieRef {
	c, err := servlet.ParseCookie(cookie, buf)
	if err != nil {
		return nil
	}
	return &c
}

// member finds the live engine called name (bytes only compared).
func member[K string | []byte](view View, name K) (cluster.MemberInfo, bool) {
	for _, m := range view.Candidates(servlet.ServiceName) {
		if m.Name == string(name) {
			return m, true
		}
	}
	return cluster.MemberInfo{}, false
}

// ---------------------------------------------------------------------------
// Fig 2: routing in the web server / proxy plug-in

// ProxyPlugin routes on the session cookie.
type ProxyPlugin struct{ router }

// NewProxyPlugin creates a plug-in front end using the given node (its own
// endpoint in the presentation tier) and cluster view.
func NewProxyPlugin(node rmi.Node, view View, reg *metrics.Registry) *ProxyPlugin {
	return &ProxyPlugin{newRouter(node, view, reg)}
}

// Route forwards one request: to the cookie's primary, then its secondary,
// of those still in the view, then wherever the stub fails over to. A
// request whose cookie names neither (none sent, or it did not parse) goes
// where the stub's round robin sends it: session creation.
func (p *ProxyPlugin) Route(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error) {
	var span *trace.Span
	if p.tracer != nil {
		ctx, span = p.tracer.StartRoot(ctx, "http "+path, trace.KindRoute)
		span.Annotate("router", "proxy-plugin")
		defer span.Finish()
	}
	var buf servlet.CookieBuf
	c := parseForward(cookie, &buf)
	// An array, not a fresh slice, so the routing decision allocates nothing.
	var pair [2]cluster.MemberInfo
	first := pair[:0]
	if c != nil {
		for _, name := range [2][]byte{c.Primary, c.Secondary} {
			if m, ok := member(p.view, name); ok && (len(first) == 0 || first[0].Name != m.Name) {
				first = append(first, m)
			}
		}
	}
	return p.route(ctx, span, first, path, cookie, c, body)
}

// ---------------------------------------------------------------------------
// Fig 3: external load-balancing appliance

// ExternalLB models an IP appliance: it knows client identities (source
// addresses) and sticky affinity, and never routes on cookies (it parses
// one only to forward it, as every router's hop does).
type ExternalLB struct {
	router

	mu       sync.Mutex
	affinity *affinityLRU // clientID → server name, LRU-bounded
}

// NewExternalLB creates an appliance front end.
//
//wls:nolint unreached -- library-only: §2.1 (Fig 3), TestExternalLBFig3Failover
func NewExternalLB(node rmi.Node, view View, reg *metrics.Registry) *ExternalLB {
	return &ExternalLB{router: newRouter(node, view, reg), affinity: newAffinityLRU(0)}
}

// Route forwards a request for clientID, maintaining affinity: to the
// client's sticky server while it is live, else to an arbitrary member (the
// stub's round robin), and from there wherever the stub fails over to.
// Affinity follows the member that served; the engine there recovers the
// session from the secondary named in the cookie.
func (lb *ExternalLB) Route(ctx context.Context, clientID, path, cookie string, body []byte) (servlet.Response, error) {
	var span *trace.Span
	if lb.tracer != nil {
		ctx, span = lb.tracer.StartRoot(ctx, "http "+path, trace.KindRoute)
		span.Annotate("router", "external-lb")
		span.Annotate("client", clientID)
		defer span.Finish()
	}
	lb.mu.Lock()
	target, _ := lb.affinity.get(clientID)
	lb.mu.Unlock()
	var one [1]cluster.MemberInfo
	first := one[:0]
	if m, ok := member(lb.view, target); ok {
		first = append(first, m)
	}
	var buf servlet.CookieBuf
	resp, err := lb.route(ctx, span, first, path, cookie, parseForward(cookie, &buf), body)
	if err != nil {
		return servlet.Response{}, err
	}
	lb.mu.Lock()
	lb.affinity.put(clientID, resp.ServedBy)
	lb.mu.Unlock()
	return resp, nil
}

// ---------------------------------------------------------------------------
// DNS co-listing

// DNSClients models publishing the front-end servers "under a single DNS
// name and allow[ing] the client to make the choice": each client resolves
// once, sticks with that server, and only re-resolves on failure — the
// "coarse control" the paper contrasts with appliances. A call goes to the
// chosen server only and never fails over: the client sees the failure.
type DNSClients struct {
	view View
	rr   atomic.Uint64
	stub *rmi.Stub

	mu     sync.Mutex
	chosen map[string]string
}

// NewDNSClients creates the DNS-based client-side router.
//
//wls:nolint unreached -- library-only: §2.1 (Fig 3), TestDNSClientsSpreadAcrossServers
func NewDNSClients(node rmi.Node, view View) *DNSClients {
	return &DNSClients{view: view, stub: newStub(node, view, nil), chosen: make(map[string]string)}
}

// Route issues a request from clientID with client-side server choice.
func (d *DNSClients) Route(ctx context.Context, clientID, path, cookie string, body []byte) (servlet.Response, error) {
	backs := d.view.Candidates(servlet.ServiceName)
	if len(backs) == 0 {
		return servlet.Response{}, ErrNoBackends
	}
	d.mu.Lock()
	name := d.chosen[clientID]
	d.mu.Unlock()

	addr := ""
	for _, b := range backs {
		if b.Name == name {
			addr = b.Addr
		}
	}
	if addr == "" {
		// (Re-)resolve: round robin across the co-listed records.
		b := backs[int(d.rr.Add(1)-1)%len(backs)]
		name, addr = b.Name, b.Addr
	}
	var buf servlet.CookieBuf
	enc := wire.AcquireEncoder()
	servlet.AppendRequest(enc, path, parseForward(cookie, &buf), name, body)
	res, err := d.stub.InvokeOn(ctx, addr, "request", enc.Bytes())
	enc.Release()
	var resp servlet.Response
	if err == nil {
		resp, err = reply(res, cookie)
	}
	if err != nil {
		// Client notices the dead server and re-resolves on the next call.
		d.mu.Lock()
		delete(d.chosen, clientID)
		d.mu.Unlock()
		return servlet.Response{}, err
	}
	d.mu.Lock()
	d.chosen[clientID] = name
	d.mu.Unlock()
	return resp, nil
}
