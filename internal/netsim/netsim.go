// Package netsim provides an in-process network fabric with controllable
// failure modes. All cluster protocols in this repository are written
// against the small Node interface implemented both here and by the real
// TCP transport (internal/transport), so every distributed scenario the
// paper discusses can be reproduced deterministically:
//
//   - server crash              → Endpoint.Close
//   - frozen server (§3.4)      → Network.Freeze — the endpoint stops
//     processing traffic but is NOT dead, the classic split-brain setup
//   - network partition         → Network.SetPartitioned
//   - router-level fencing      → Network.Fence — the platform-dependent
//     isolation step of §3.4; a fenced server's outbound messages are
//     dropped by the fabric itself
//   - LAN/WAN latency           → per-link latency, applied on the fabric's
//     virtual clock
//
// Handlers run on their own goroutines, like a server's execute threads.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/vclock"
	"wls/internal/wire"
)

// Handler is the shared frame-handler type; see wire.Handler.
type Handler = wire.Handler

// Errors a Call returns before any handler ran for its request; each
// satisfies wire.ErrNotRun.
var (
	ErrUnreachable = wire.NotRun(errors.New("netsim: destination unreachable"))
	ErrClosed      = wire.NotRun(errors.New("netsim: endpoint closed"))
	ErrFenced      = wire.NotRun(errors.New("netsim: endpoint fenced"))
)

// errNoReply is a Call's error once the handler has run and no reply came
// back: it returned none, or the route back failed. The request may have
// run, so it does not satisfy wire.ErrNotRun.
var errNoReply = errors.New("netsim: no reply")

// Network is the fabric connecting simulated endpoints.
type Network struct {
	clock vclock.Clock

	mu          sync.Mutex
	endpoints   map[string]*Endpoint
	partitioned map[linkKey]bool
	latency     map[linkKey]time.Duration
	slow        map[string]time.Duration // per-endpoint latency inflation
	fenced      map[string]bool
	defLatency  time.Duration
	// tap sees every frame an endpoint sends (see Tap).
	tap atomic.Pointer[func(from, to string, f wire.Frame)]

	sent   int64        // frames that entered the fabric; see Stats
	faults atomic.Int64 // fault injections; see Faults
}

// Faults returns how many fault injections the fabric has seen:
// partitions and heals, fences, freezes and thaws, crashes, restarts and
// slow-server changes, each counted once.
func (n *Network) Faults() int64 { return n.faults.Load() }

// Tap installs fn to see every request an endpoint of this network sends,
// as it enters the fabric — tests sniff what crosses the wire with it. fn
// runs on the sender's goroutine and must neither modify nor retain f.Body.
// A nil fn removes the tap.
//
//wls:nolint unreached -- item 26: FuzzEveryMethod captures its seed corpus through it
func (n *Network) Tap(fn func(from, to string, f wire.Frame)) {
	if fn == nil {
		n.tap.Store(nil)
		return
	}
	n.tap.Store(&fn)
}

// tapped hands f to the tap, if one is installed.
func (n *Network) tapped(from, to string, f wire.Frame) {
	if fn := n.tap.Load(); fn != nil {
		(*fn)(from, to, f)
	}
}

type linkKey struct{ a, b string }

func link(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// New returns an empty fabric driven by clock.
func New(clock vclock.Clock) *Network {
	return &Network{
		clock:       clock,
		endpoints:   make(map[string]*Endpoint),
		partitioned: make(map[linkKey]bool),
		latency:     make(map[linkKey]time.Duration),
		slow:        make(map[string]time.Duration),
		fenced:      make(map[string]bool),
	}
}

// Endpoint attaches a new endpoint with the given address. It panics if the
// address is already taken (configuration error).
func (n *Network) Endpoint(addr string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[addr]; ok {
		panic(fmt.Sprintf("netsim: duplicate endpoint %q", addr))
	}
	ep := &Endpoint{net: n, addr: addr}
	n.endpoints[addr] = ep
	return ep
}

// SetDefaultLatency sets the latency applied to links with no explicit
// setting.
func (n *Network) SetDefaultLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defLatency = d
}

// SetLatency sets the one-way latency between a and b.
//
//wls:nolint unreached -- test hook: TestBudgetPropagatesAndShrinksAcrossHops
func (n *Network) SetLatency(a, b string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency[link(a, b)] = d
}

// SetSlow adds extra one-way latency to every link touching addr — a
// "slow server" whose execute threads lag without the process being down,
// the overload-protection stack's hardest case (it still answers, late).
// extra <= 0 clears the inflation.
func (n *Network) SetSlow(addr string, extra time.Duration) {
	n.mu.Lock()
	if extra <= 0 {
		delete(n.slow, addr)
	} else {
		n.slow[addr] = extra
	}
	n.mu.Unlock()
	n.faults.Add(1)
}

// SetPartitioned splits or heals the link between a and b.
func (n *Network) SetPartitioned(a, b string, broken bool) {
	n.mu.Lock()
	n.partitioned[link(a, b)] = broken
	n.mu.Unlock()
	n.faults.Add(1)
}

// Isolate partitions addr from every other current endpoint.
//
//wls:nolint unreached -- test hook: TestIsolatedLeaderStepsDown
func (n *Network) Isolate(addr string, broken bool) {
	n.mu.Lock()
	for other := range n.endpoints {
		if other != addr {
			n.partitioned[link(addr, other)] = broken
		}
	}
	n.mu.Unlock()
	n.faults.Add(1)
}

// Fence marks addr as fenced: the fabric drops everything it sends and
// everything sent to it. This models the SNMP router-level fencing of §3.4.
func (n *Network) Fence(addr string, fenced bool) {
	n.mu.Lock()
	n.fenced[addr] = fenced
	n.mu.Unlock()
	n.faults.Add(1)
}

// Freeze pauses or resumes an endpoint's handler. A frozen endpoint is not
// dead: frames addressed to it block until it thaws (or fail when the
// sender's context expires), exactly the "target server temporarily
// freezes" scenario of §3.4.
func (n *Network) Freeze(addr string, frozen bool) {
	n.mu.Lock()
	ep := n.endpoints[addr]
	n.mu.Unlock()
	if ep != nil {
		ep.freeze(frozen)
		n.faults.Add(1)
	}
}

// Restart re-opens a previously closed endpoint, returning it to service
// with no handler installed (the server must re-register).
func (n *Network) Restart(addr string) *Endpoint {
	n.mu.Lock()
	if ep, ok := n.endpoints[addr]; ok {
		ep.mu.Lock()
		ep.closed = false
		ep.handler = nil
		ep.mu.Unlock()
		n.mu.Unlock()
		n.faults.Add(1)
		return ep
	}
	ep := &Endpoint{net: n, addr: addr}
	n.endpoints[addr] = ep
	n.mu.Unlock()
	n.faults.Add(1)
	return ep
}

// route decides whether a frame from src to dst may pass and with what
// latency. It returns the destination endpoint and the latency, or why the
// frame cannot pass.
func (n *Network) route(src, dst string) (*Endpoint, time.Duration, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.fenced[src] || n.fenced[dst] {
		return nil, 0, ErrFenced
	}
	if n.partitioned[link(src, dst)] {
		return nil, 0, ErrUnreachable
	}
	ep, ok := n.endpoints[dst]
	if !ok {
		return nil, 0, ErrUnreachable
	}
	ep.mu.Lock()
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return nil, 0, ErrUnreachable
	}
	n.sent++
	lat, ok := n.latency[link(src, dst)]
	if !ok {
		lat = n.defLatency
	}
	lat += n.slow[src] + n.slow[dst]
	return ep, lat, nil
}

// Endpoint is a simulated server address on the fabric.
type Endpoint struct {
	net  *Network
	addr string

	mu      sync.Mutex
	handler Handler
	closed  bool
	frozen  bool
	thaw    chan struct{}
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() string { return e.addr }

// SetHandler installs the inbound frame handler.
func (e *Endpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Close marks the endpoint crashed.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	wasOpen := !e.closed
	e.closed = true
	if e.frozen {
		e.frozen = false
		if e.thaw != nil {
			close(e.thaw)
			e.thaw = nil
		}
	}
	e.mu.Unlock()
	if wasOpen {
		e.net.faults.Add(1)
	}
	return nil
}

func (e *Endpoint) freeze(frozen bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen == frozen {
		return
	}
	e.frozen = frozen
	if frozen {
		e.thaw = make(chan struct{})
	} else if e.thaw != nil {
		close(e.thaw)
		e.thaw = nil
	}
}

// waitThaw blocks while the endpoint is frozen, or until ctx expires.
func (e *Endpoint) waitThaw(ctx context.Context) error {
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return ErrClosed
		}
		if !e.frozen {
			e.mu.Unlock()
			return nil
		}
		ch := e.thaw
		e.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// delivery carries one inbound frame to its handler goroutine. Deliveries
// are pooled: the closure pair the old code allocated per message (timer
// thunk + goroutine body) was a measurable share of hot-path allocations.
type delivery struct {
	ep    *Endpoint
	ctx   context.Context
	from  string
	f     wire.Frame
	reply chan response
}

// response is what a Call waits for: the handler's frame, already the
// caller's own, or why none came.
type response struct {
	f   wire.Frame
	err error
}

var deliveryPool = sync.Pool{New: func() any { return new(delivery) }}

// spawn starts the handler goroutine; it is the AfterFunc target for
// links with latency.
func (d *delivery) spawn() { go d.process() }

func (d *delivery) process() {
	// Copy everything to locals and recycle the struct up front: the
	// handler below may block arbitrarily long (frozen endpoint), and the
	// pooled object must not sit hostage to it.
	ep, ctx, from, f, reply := d.ep, d.ctx, d.from, d.f, d.reply
	*d = delivery{}
	deliveryPool.Put(d)

	out := response{err: ErrUnreachable}
	if ep.waitThaw(ctx) == nil {
		ep.mu.Lock()
		h := ep.handler
		closed := ep.closed
		ep.mu.Unlock()
		if h != nil && !closed {
			out = own(h(from, f))
		}
	}
	select {
	case reply <- out:
	default:
	}
}

// own applies the Node ownership rule at the fabric's delivery edge: the
// body of a pooled response is copied for the caller and the frame
// released. A frame that is not pooled is already the caller's to keep —
// its body is the handler's own allocation, or aliases the request copy
// Call made on entry, which nothing recycles — and is handed over as is.
func own(resp *wire.Frame) response {
	if resp == nil {
		return response{err: errNoReply}
	}
	f := wire.Frame{Kind: resp.Kind, Corr: resp.Corr, Body: resp.Body}
	if resp.Encoder() != nil {
		f = cloneBody(f)
		resp.Release()
	}
	return response{f: f}
}

// deliver runs the handler for an inbound request after the link latency.
func (e *Endpoint) deliver(ctx context.Context, from string, f wire.Frame, lat time.Duration, reply chan response) {
	d := deliveryPool.Get().(*delivery)
	*d = delivery{ep: e, ctx: ctx, from: from, f: f, reply: reply}
	if lat > 0 {
		e.net.clock.AfterFunc(lat, d.spawn)
	} else {
		d.spawn()
	}
}

// replyPool recycles Call reply channels (buffered, capacity 1). Only the
// receive path returns them; abandoned channels fall to the GC.
var replyPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// cloneBody detaches f's body from the caller's buffer. Like the TCP
// transport, the fabric copies frame bodies on entry so callers may reuse
// (or release to a pool) their encode buffers as soon as Call returns —
// delivery may run arbitrarily later on a frozen or slow link.
func cloneBody(f wire.Frame) wire.Frame {
	if len(f.Body) > 0 {
		f.Body = append([]byte(nil), f.Body...)
	}
	return f
}

// Call performs a request/response exchange. The response frame's kind is
// whatever the remote handler produced (normally KindResponse). A frozen
// caller blocks until it thaws, like a frozen process would. The frame
// body is copied before dispatch, mirroring the TCP transport's
// enqueue-copies semantics. An error that satisfies wire.ErrNotRun proves
// the request reached no handler; any other may follow a handler's run.
func (e *Endpoint) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	f = cloneBody(f)
	e.net.tapped(e.addr, to, f)
	if err := e.waitThaw(ctx); err != nil { // ErrClosed from a crashed caller
		return wire.Frame{}, err
	}
	dst, lat, err := e.net.route(e.addr, to)
	if err != nil {
		return wire.Frame{}, err
	}
	// Reply channels are pooled. Each delivery sends at most once, so once
	// this side has received, no sender remains and the channel may be
	// recycled. The abandonment path (ctx done before the reply arrives)
	// must NOT recycle: a late handler may still deposit its response, and
	// a recycled channel would leak that stale frame into a future call.
	reply := replyPool.Get().(chan response)
	dst.deliver(ctx, e.addr, f, lat, reply)
	select {
	case resp := <-reply:
		replyPool.Put(reply)
		if resp.err != nil {
			return wire.Frame{}, resp.err
		}
		// Response also pays link latency; check the reverse path is alive.
		if _, _, err := e.net.route(to, e.addr); err != nil {
			return wire.Frame{}, fmt.Errorf("%w: %v", errNoReply, err)
		}
		if lat > 0 {
			done := make(chan struct{})
			e.net.clock.AfterFunc(lat, func() { close(done) })
			select {
			case <-done:
			case <-ctx.Done():
				return wire.Frame{}, ctx.Err()
			}
		}
		return resp.f, nil
	case <-ctx.Done():
		return wire.Frame{}, ctx.Err()
	}
}
