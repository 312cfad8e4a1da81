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

// stubCache holds one engine stub per backend. Building a stub per routed
// request (policy chain, idempotent map, view) was several allocations on
// the routing hot path; the set of backends is bounded by the cluster
// topology, so the cache is too. SetResilience invalidates it: cached
// stubs bake in the resilience layer they were built with.
type stubCache struct {
	node rmi.Node

	mu  sync.RWMutex
	res *rmi.Resilience
	m   map[stubKey]*rmi.Stub
}

type stubKey struct{ name, addr string }

func newStubCache(node rmi.Node) *stubCache {
	return &stubCache{node: node, m: make(map[stubKey]*rmi.Stub)}
}

func (sc *stubCache) setResilience(r *rmi.Resilience) {
	sc.mu.Lock()
	sc.res = r
	sc.m = make(map[stubKey]*rmi.Stub)
	sc.mu.Unlock()
}

func (sc *stubCache) resilience() *rmi.Resilience {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.res
}

func (sc *stubCache) get(name, addr string) *rmi.Stub {
	k := stubKey{name, addr}
	sc.mu.RLock()
	stub, ok := sc.m[k]
	sc.mu.RUnlock()
	if ok {
		return stub
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if stub, ok = sc.m[k]; ok {
		return stub
	}
	// The named view is what the stub reports as the serving server (a reply
	// does not name it), and breakers are keyed by member name, so the
	// stub's outcome recording stays aligned with the routers' checks.
	view := rmi.NamedStaticView(name, addr)
	if sc.res != nil {
		stub = rmi.NewStub(servlet.ServiceName, sc.node, view, rmi.WithResilience(sc.res))
	} else {
		stub = rmi.NewStub(servlet.ServiceName, sc.node, view)
	}
	sc.m[k] = stub
	return stub
}

// call invokes the servlet engine on a specific member, encoding the
// request through a pooled encoder and decoding the response in place. It
// is the one encoder of engine requests: the cookie travels as c, the
// router's parse of its text (nil: it did not parse, and the engine answers
// 400), in the binary form servlet.AppendRequest writes for this callee. It
// is the one decoder of engine replies, and it holds the request: a reply
// that names no cookie means the one just sent (servlet.AppendResponse),
// and no reply names its server, which is the member called — so every
// router above returns the Response it would have with both echoed.
func (sc *stubCache) call(ctx context.Context, name, addr, path, cookie string, c *servlet.CookieRef, body []byte) (servlet.Response, error) {
	stub := sc.get(name, addr)
	enc := wire.AcquireEncoder()
	servlet.AppendRequest(enc, path, c, name, body)
	res, err := stub.Invoke(ctx, "request", enc.Bytes())
	enc.Release()
	if err != nil {
		return servlet.Response{}, err
	}
	resp, err := servlet.DecodeResponseNoCopy(res.Body, cookie)
	resp.ServedBy = res.ServedBy
	return resp, err
}

// parseForward parses the cookie of a router that does not route on it, for
// the hop: nil when it does not parse, which the engine answers with 400.
func parseForward(cookie string, buf *servlet.CookieBuf) *servlet.CookieRef {
	c, err := servlet.ParseCookie(cookie, buf)
	if err != nil {
		return nil
	}
	return &c
}

// breakerOpen reports whether name's circuit breaker is open. Routers use
// it to demote tripped servers to the back of the attempt order: they are
// still reached when everything else is down (the stub's last-candidate
// probe), but healthy members absorb the load while a tripped server
// cools off.
func breakerOpen(r *rmi.Resilience, name string) bool {
	return r != nil && r.State(name) == rmi.BreakerOpen
}

// ---------------------------------------------------------------------------
// Fig 2: routing in the web server / proxy plug-in

// ProxyPlugin routes on the session cookie.
type ProxyPlugin struct {
	node   rmi.Node
	view   View
	rr     atomic.Uint64
	reg    *metrics.Registry
	tracer *trace.Tracer
	res    *rmi.Resilience
	stubs  *stubCache
	// routed/failovers are resolved once: metric-name lookups allocate.
	routed    *metrics.Counter
	failovers *metrics.Counter
}

// SetTracer makes the plug-in start a root span per routed request (wire
// it before serving traffic).
func (p *ProxyPlugin) SetTracer(t *trace.Tracer) { p.tracer = t }

// SetResilience gives the plug-in a client-side resilience layer: engine
// calls feed its per-server breakers, and load-balancing demotes servers
// whose breaker is open (wire it before serving traffic).
func (p *ProxyPlugin) SetResilience(r *rmi.Resilience) {
	p.res = r
	p.stubs.setResilience(r)
}

// NewProxyPlugin creates a plug-in front end using the given node (its own
// endpoint in the presentation tier) and cluster view.
func NewProxyPlugin(node rmi.Node, view View, reg *metrics.Registry) *ProxyPlugin {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &ProxyPlugin{
		node:      node,
		view:      view,
		reg:       reg,
		stubs:     newStubCache(node),
		routed:    reg.Counter("webtier.routed"),
		failovers: reg.Counter("webtier.failovers"),
	}
}

func (p *ProxyPlugin) backends() []cluster.MemberInfo {
	return p.view.Candidates(servlet.ServiceName)
}

// backend finds the live engine a cookie field names (bytes only compared).
func (p *ProxyPlugin) backend(name []byte) (cluster.MemberInfo, bool) {
	for _, m := range p.backends() {
		if m.Name == string(name) {
			return m, true
		}
	}
	return cluster.MemberInfo{}, false
}

// Route forwards one request: cookie-primary first, then cookie-secondary,
// then round robin over live engines (session creation).
func (p *ProxyPlugin) Route(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error) {
	var span *trace.Span
	if p.tracer != nil {
		ctx, span = p.tracer.StartRoot(ctx, "http "+path, trace.KindRoute)
		span.Annotate("router", "proxy-plugin")
		defer span.Finish()
	}
	var buf servlet.CookieBuf
	c, err := servlet.ParseCookie(cookie, &buf)
	if err != nil {
		span.SetError(err)
		return servlet.Response{}, err
	}
	// Cookie-directed routing: primary first, then secondary (an array, not
	// a fresh slice, so the routing decision allocates nothing).
	for i, named := range [2][]byte{c.Primary, c.Secondary} {
		target, ok := p.backend(named)
		if !ok {
			continue // none named, or not in the current view (failed): try next
		}
		resp, err := p.stubs.call(ctx, target.Name, target.Addr, path, cookie, &c, body)
		if err == nil {
			p.routed.Inc()
			if span != nil {
				span.Annotate("decision", [2]string{"cookie-primary", "cookie-secondary"}[i])
				span.Annotate("served", target.Name)
			}
			return resp, nil
		}
		p.failovers.Inc()
		if span != nil {
			span.Annotate("failover-from", target.Name)
		}
	}
	// No cookie, or both replicas unreachable: load balance. Two passes
	// over the rotated ring — healthy members first, then servers whose
	// breaker is open — giving the same attempt order the old
	// slice-building demoteOpen produced, without per-request allocation.
	backs := p.backends()
	if len(backs) == 0 {
		span.SetError(ErrNoBackends)
		return servlet.Response{}, ErrNoBackends
	}
	start := int(p.rr.Add(1)-1) % len(backs)
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(backs); i++ {
			b := backs[(start+i)%len(backs)]
			if breakerOpen(p.res, b.Name) != (pass == 1) {
				continue
			}
			resp, err := p.stubs.call(ctx, b.Name, b.Addr, path, cookie, &c, body)
			if err == nil {
				p.routed.Inc()
				if span != nil {
					span.Annotate("decision", "load-balance")
					span.Annotate("served", b.Name)
				}
				return resp, nil
			}
			lastErr = err
		}
		if p.res == nil {
			break // no breakers: a second pass would retry everyone
		}
	}
	err = errors.Join(ErrNoBackends, lastErr)
	span.SetError(err)
	return servlet.Response{}, err
}

// ---------------------------------------------------------------------------
// Fig 3: external load-balancing appliance

// ExternalLB models an IP appliance: it knows client identities (source
// addresses) and sticky affinity, and never routes on cookies (it parses
// one only to forward it, as every router's hop does).
type ExternalLB struct {
	node   rmi.Node
	view   View
	rr     atomic.Uint64
	reg    *metrics.Registry
	tracer *trace.Tracer
	res    *rmi.Resilience
	stubs  *stubCache
	// routed/failovers are resolved once: metric-name lookups allocate.
	routed    *metrics.Counter
	failovers *metrics.Counter

	mu       sync.Mutex
	affinity *affinityLRU // clientID → server name, LRU-bounded
}

// SetTracer makes the appliance start a root span per routed request
// (wire it before serving traffic).
func (lb *ExternalLB) SetTracer(t *trace.Tracer) { lb.tracer = t }

// SetResilience gives the appliance a client-side resilience layer (see
// ProxyPlugin.SetResilience).
func (lb *ExternalLB) SetResilience(r *rmi.Resilience) {
	lb.res = r
	lb.stubs.setResilience(r)
}

// NewExternalLB creates an appliance front end.
func NewExternalLB(node rmi.Node, view View, reg *metrics.Registry) *ExternalLB {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &ExternalLB{
		node:      node,
		view:      view,
		reg:       reg,
		stubs:     newStubCache(node),
		routed:    reg.Counter("webtier.routed"),
		failovers: reg.Counter("webtier.failovers"),
		affinity:  newAffinityLRU(0),
	}
}

// SetAffinityCap bounds the sticky-affinity table (default 65536 entries);
// the least-recently-used client is evicted when it fills.
func (lb *ExternalLB) SetAffinityCap(n int) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.affinity.setCap(n)
}

// AffinityLen reports how many clients currently have a sticky entry.
func (lb *ExternalLB) AffinityLen() int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.affinity.len()
}

// RecordAffinity inserts a sticky entry directly, as Route would after a
// successful forward (pre-warming and bounded-growth tests).
func (lb *ExternalLB) RecordAffinity(clientID, server string) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.affinity.put(clientID, server)
}

func (lb *ExternalLB) backends() []cluster.MemberInfo {
	return lb.view.Candidates(servlet.ServiceName)
}

// Route forwards a request for clientID, maintaining affinity. On target
// failure, affinity switches to an arbitrary live member; the engine there
// recovers the session from the secondary named in the cookie.
func (lb *ExternalLB) Route(ctx context.Context, clientID, path, cookie string, body []byte) (servlet.Response, error) {
	var span *trace.Span
	if lb.tracer != nil {
		ctx, span = lb.tracer.StartRoot(ctx, "http "+path, trace.KindRoute)
		span.Annotate("router", "external-lb")
		span.Annotate("client", clientID)
		defer span.Finish()
	}
	backs := lb.backends()
	if len(backs) == 0 {
		span.SetError(ErrNoBackends)
		return servlet.Response{}, ErrNoBackends
	}

	lb.mu.Lock()
	target, hasAffinity := lb.affinity.get(clientID)
	lb.mu.Unlock()

	var buf servlet.CookieBuf
	c := parseForward(cookie, &buf)
	tryServer := func(name string) (servlet.Response, bool) {
		for _, b := range backs {
			if b.Name == name {
				resp, err := lb.stubs.call(ctx, b.Name, b.Addr, path, cookie, c, body)
				if err == nil {
					lb.mu.Lock()
					lb.affinity.put(clientID, name)
					lb.mu.Unlock()
					lb.routed.Inc()
					if span != nil {
						span.Annotate("served", name)
					}
					return resp, true
				}
			}
		}
		return servlet.Response{}, false
	}

	if hasAffinity {
		if resp, ok := tryServer(target); ok {
			if span != nil {
				span.Annotate("decision", "affinity")
			}
			return resp, nil
		}
		lb.failovers.Inc()
		if span != nil {
			span.Annotate("failover-from", target)
		}
	}
	// Pick an arbitrary member (round robin) and stick to it. Two passes
	// over the rotated ring: members whose breaker is closed first, then
	// tripped ones (same order the old slice-building demoteOpen produced,
	// without the per-request allocation).
	start := int(lb.rr.Add(1)-1) % len(backs)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(backs); i++ {
			b := backs[(start+i)%len(backs)]
			if breakerOpen(lb.res, b.Name) != (pass == 1) {
				continue
			}
			if resp, ok := tryServer(b.Name); ok {
				if span != nil {
					span.Annotate("decision", "arbitrary-member")
				}
				return resp, nil
			}
		}
		if lb.res == nil {
			break // no breakers: a second pass would retry everyone
		}
	}
	span.SetError(ErrNoBackends)
	return servlet.Response{}, ErrNoBackends
}

// AffinityOf reports the sticky server for a client ("" if none).
func (lb *ExternalLB) AffinityOf(clientID string) string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.affinity.peek(clientID)
}

// ---------------------------------------------------------------------------
// DNS co-listing

// DNSClients models publishing the front-end servers "under a single DNS
// name and allow[ing] the client to make the choice": each client resolves
// once, sticks with that server, and only re-resolves on failure — the
// "coarse control" the paper contrasts with appliances.
type DNSClients struct {
	node  rmi.Node
	view  View
	rr    atomic.Uint64
	stubs *stubCache

	mu     sync.Mutex
	chosen map[string]string
}

// NewDNSClients creates the DNS-based client-side router.
func NewDNSClients(node rmi.Node, view View) *DNSClients {
	return &DNSClients{node: node, view: view, stubs: newStubCache(node), chosen: make(map[string]string)}
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
	resp, err := d.stubs.call(ctx, name, addr, path, cookie, parseForward(cookie, &buf), body)
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
