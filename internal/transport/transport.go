// Package transport is the production counterpart of internal/netsim: the
// same node (Addr, Call, SetHandler; see rmi.Node) implemented over real
// TCP connections with wire framing.
//
// Like WebLogic's T3 protocol, a single connection between two servers
// multiplexes many concurrent requests using correlation identifiers, and
// connections are established lazily and cached, which is what gives the
// presentation tier its "session concentration" property (§2.1): thousands
// of client sockets fan in to a handful of back-end connections.
//
// A connection doubles as both directions of traffic: if A dialed B, B
// sends its own requests to A over the same TCP connection rather than
// dialing back. A connection is never closed for being a duplicate (both
// ends dialed at once, or a server dialed its own address): the peer may
// already have calls in flight on it.
//
// The hot path is built for concentration economics (§2.1–2.2): frames
// queued by concurrent callers are coalesced by a per-connection writer
// goroutine into single buffered flushes (many frames, one syscall), a
// call's correlation id is its waiter's slot, reused (one byte while at
// most 128 calls are in flight), inbound requests run on a bounded worker
// pool, and call slots and request buffers are pooled under the ownership
// rule stated on wire.Handler. A reply body of at most 256 B is copied for
// its caller into the transport's current 2 KiB slab, and a call watches
// its context only once its reply is late, so a call allocates nothing; a
// larger reply body is the one allocation, as its caller's own copy.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/metrics"
	"wls/internal/wire"
)

// Handler is the shared frame-handler type; see wire.Handler.
type Handler = wire.Handler

// ErrClosed is returned by a Call made after Close. Like ErrDial it
// satisfies wire.ErrNotRun: the request never left this server.
var ErrClosed = wire.NotRun(errors.New("transport: closed"))

// ErrDial wraps connection-establishment failures, the handshake included.
var ErrDial = wire.NotRun(errors.New("transport: dial failed"))

// Transport is one server's endpoint on the network.
type Transport struct {
	ln      net.Listener
	addr    string
	handler atomic.Value // Handler
	reg     *metrics.Registry
	tasks   chan inbound // the worker pool's queue

	framesOut, bytesOut     *metrics.Counter
	framesIn, bytesIn       *metrics.Counter
	batchFrames, batchBytes *metrics.Histogram

	// conns maps an advertised address to the conn calls to that peer go
	// out on. It is copy-on-write, so a Call reads it with no lock; track,
	// dropConn and Close publish a new map under mu.
	conns atomic.Pointer[map[string]*conn]

	mu      sync.Mutex
	extras  map[*conn]struct{}       // other live conns to the same peers, tracked so Close reaps them
	dialing map[string]chan struct{} // dials in progress, closed when done: one per peer at a time
	closed  bool
	wg      sync.WaitGroup

	// slab is the array small reply bodies are carved from, its length the
	// bytes handed out; slabMu is held by the conns' read loops only.
	slabMu sync.Mutex
	slab   []byte
}

// slabSize is the size of a reply slab, and slabMax the largest body
// carved from one: a kept body keeps at most one slab alive.
const (
	slabSize = 2 << 10
	slabMax  = 256
)

// keep copies a reply body out of the read buffer for its caller. A body
// of at most slabMax bytes goes at the end of the current slab; a slab
// with no room left is replaced, and is never written again. The caller
// gets a slice capped at its own bytes, so an append to it reallocates and
// no caller can reach another's reply.
func (t *Transport) keep(b []byte) []byte {
	n := len(b)
	if n == 0 || n > slabMax {
		return append([]byte(nil), b...)
	}
	t.slabMu.Lock()
	if len(t.slab)+n > cap(t.slab) {
		t.slab = make([]byte, 0, slabSize)
	}
	i := len(t.slab)
	t.slab = append(t.slab, b...)
	out := t.slab[i : i+n : i+n]
	t.slabMu.Unlock()
	return out
}

// Listen starts a transport on the given TCP address ("127.0.0.1:0" picks a
// free port). The advertised address is the actual listen address.
func Listen(addr string) (*Transport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	t := &Transport{
		ln:          ln,
		addr:        ln.Addr().String(),
		reg:         reg,
		tasks:       make(chan inbound, queueDepth),
		framesOut:   reg.Counter("transport.frames.out"),
		bytesOut:    reg.Counter("transport.bytes.out"),
		framesIn:    reg.Counter("transport.frames.in"),
		bytesIn:     reg.Counter("transport.bytes.in"),
		batchFrames: reg.Histogram("transport.batch.frames"),
		batchBytes:  reg.Histogram("transport.batch.bytes"),
		extras:      make(map[*conn]struct{}),
		dialing:     make(map[string]chan struct{}),
	}
	t.conns.Store(&map[string]*conn{})
	t.handler.Store(Handler(func(string, wire.Frame) *wire.Frame { return nil }))
	for i := 0; i < workers(); i++ {
		go func() {
			for task := range t.tasks {
				task.run()
			}
		}()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the advertised address of this transport.
func (t *Transport) Addr() string { return t.addr }

// SetHandler installs the inbound frame handler.
func (t *Transport) SetHandler(h Handler) { t.handler.Store(h) }

// Metrics returns the registry the transport records its frame, byte and
// batch metrics into (transport.frames.in/out, transport.bytes.in/out,
// transport.batch.frames, transport.batch.bytes).
func (t *Transport) Metrics() *metrics.Registry { return t.reg }

// Close shuts down the listener, all connections (including duplicate
// inbound ones), and the worker pool.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	live := *t.conns.Load()
	t.conns.Store(&map[string]*conn{})
	conns := make([]*conn, 0, len(live)+len(t.extras))
	for _, c := range live {
		conns = append(conns, c)
	}
	for c := range t.extras {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	// A call pending on a conn may have run on the peer: it fails with
	// errConnDead, not with ErrClosed, which says it never left.
	reason := fmt.Errorf("%w: transport closed", errConnDead)
	for _, c := range conns {
		c.close(reason)
	}
	// All read loops have exited once wg returns, so nothing submits to
	// the pool anymore; workers drain the queue and exit. In-flight
	// handlers finish on their own goroutines, as before.
	t.wg.Wait()
	close(t.tasks)
	return err
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handleInbound(nc)
		}()
	}
}

// helloFrame is the dialer's first frame: the wire format it speaks, then
// its advertised address.
func helloFrame(addr string) wire.Frame {
	return wire.Frame{Kind: wire.KindAnnounce, Body: append([]byte{wire.FormatVersion}, addr...)}
}

// handleInbound performs the server side of the handshake. A peer that
// speaks another frame format is closed here, before any of its frames
// could be misread: its hello either fails to parse or carries another
// version byte.
func (t *Transport) handleInbound(nc net.Conn) {
	hello, err := wire.ReadFrame(nc)
	if err != nil || hello.Kind != wire.KindAnnounce || len(hello.Body) == 0 || hello.Body[0] != wire.FormatVersion {
		_ = nc.Close() // handshake failed; nothing to recover
		return
	}
	remote := string(hello.Body[1:])
	c := newConn(t, nc, remote)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.close(ErrClosed)
		return
	}
	t.track(c)
	t.mu.Unlock()
	c.readLoop()
	t.dropConn(c)
}

// track files c under its peer: as the conn the send path uses when the
// peer has no live one, otherwise beside it in extras. Callers hold t.mu.
func (t *Transport) track(c *conn) {
	if cur := t.conn(c.remote); cur != nil && cur.dead.Load() == nil {
		t.extras[c] = struct{}{}
	} else {
		t.publish(c.remote, c)
	}
}

func (t *Transport) dropConn(c *conn) {
	t.mu.Lock()
	if t.conn(c.remote) == c {
		t.publish(c.remote, nil)
	}
	delete(t.extras, c)
	t.mu.Unlock()
}

// conn returns the conn calls to the peer at to go out on, nil if none.
func (t *Transport) conn(to string) *conn { return (*t.conns.Load())[to] }

// publish replaces conns with a copy in which to maps to c, or to nothing
// when c is nil. Callers hold t.mu.
func (t *Transport) publish(to string, c *conn) {
	m := maps.Clone(*t.conns.Load())
	if c == nil {
		delete(m, to)
	} else {
		m[to] = c
	}
	t.conns.Store(&m)
}

// getConn returns a live connection to the peer, dialing if necessary. A
// live conn is found without a lock; Close empties conns, so a Call after
// it takes the lock and reads closed. Concurrent callers wait for one dial
// and then look again; if it failed — perhaps only because its caller's
// context ran out — the next one dials.
func (t *Transport) getConn(ctx context.Context, to string) (*conn, error) {
	if c := t.conn(to); c != nil && c.dead.Load() == nil {
		return c, nil
	}
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return nil, ErrClosed
		}
		if c := t.conn(to); c != nil && c.dead.Load() == nil {
			t.mu.Unlock()
			return c, nil
		}
		done := t.dialing[to]
		if done == nil {
			done = make(chan struct{})
			t.dialing[to] = done
			t.mu.Unlock()
			c, err := t.dial(ctx, to)
			t.mu.Lock()
			delete(t.dialing, to)
			t.mu.Unlock()
			close(done)
			return c, err
		}
		t.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// dial opens, announces and tracks a connection to the peer. It returns the
// conn calls should use: the new one, or the one the peer's own dial (on a
// self-call, the accept half of this very socket) registered meanwhile.
func (t *Transport) dial(ctx context.Context, to string) (*conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDial, err)
	}
	// Handshake: announce our frame format and advertised address.
	if err := wire.WriteFrame(nc, helloFrame(t.addr)); err != nil {
		_ = nc.Close() // conn is being abandoned anyway
		return nil, fmt.Errorf("%w: hello: %v", ErrDial, err)
	}
	c := newConn(t, nc, to)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.close(ErrClosed)
		return nil, ErrClosed
	}
	t.track(c)
	use := t.conn(to)
	t.wg.Add(1)
	t.mu.Unlock()

	go func() {
		defer t.wg.Done()
		c.readLoop()
		t.dropConn(c)
	}()
	return use, nil
}

// Call performs a request/response exchange. The request is copied into the
// connection's send queue, so the caller may reuse f.Body (e.g. release it
// to a pool) as soon as Call returns; the Body of the returned frame is the
// caller's. Call never sends a request twice: an error that satisfies
// wire.ErrNotRun says the request never left, and the caller decides
// whether to send it again.
func (t *Transport) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	c, err := t.getConn(ctx, to)
	if err != nil {
		return wire.Frame{}, err
	}
	return c.call(ctx, f)
}

// NumConns reports the number of live cached connections — the measure of
// session concentration (§2.1): a front end multiplexing many clients
// holds one connection per backend, not per client.
func (t *Transport) NumConns() int { return len(*t.conns.Load()) }

// ---------------------------------------------------------------------------
// Connection

var errConnDead = errors.New("transport: connection dead")

// callSlot is where one caller waits for its response. Slots are pooled,
// which is safe because whoever removes a slot from the call table —
// deliver, the connection's close, or the caller giving up — is the only
// party that may complete it, by exactly one send on done; no channel is
// ever closed (see abandon for the caller that loses that race).
type callSlot struct {
	done     chan struct{} // capacity 1
	patience *time.Timer
	resp     wire.Frame
	err      error
}

// patience is how long a call waits for its reply before it also watches
// its context: a cancel or a deadline is seen at most this late, and a
// reply that comes sooner never makes a context allocate its Done channel.
const patience = time.Millisecond

var slotPool = sync.Pool{New: func() any {
	//wls:wallclock the transport waits on real sockets
	tm := time.NewTimer(patience)
	tm.Stop()
	return &callSlot{done: make(chan struct{}, 1), patience: tm}
}}

// abandoned marks the slot of a call given up after its request was
// queued: its id stays reserved until the late response, which deliver
// drops, so that response never reaches the next call given the id.
var abandoned = new(callSlot)

type conn struct {
	t      *Transport
	nc     net.Conn
	remote string
	w      *connWriter

	// A call's correlation id is the index of its slot in calls. Freed ids are
	// reused last in, first out: no id exceeds the peak of calls in flight.
	mu    sync.Mutex
	calls []*callSlot // by id: nil when free, abandoned when reserved for a late response
	free  []uint64    // the ids of nil entries, the most recently freed last

	dead atomic.Pointer[error] // why the conn died; nil while it is alive
}

func newConn(t *Transport, nc net.Conn, remote string) *conn {
	c := &conn{t: t, nc: nc, remote: remote}
	c.w = newConnWriter(nc, c.writeFailed, t.batchFrames, t.batchBytes)
	return c
}

// writeFailed is the connWriter's fatal-error callback: a failed flush
// poisons the connection so pending callers fail over instead of hanging.
func (c *conn) writeFailed(err error) {
	c.close(fmt.Errorf("%w: %v", errConnDead, err))
}

// register installs a response waiter under a free id, failing if the conn
// is already dead (the close path never visits a waiter added after the
// drain). The request has not been written then: the error is ErrNotRun.
func (c *conn) register(slot *callSlot) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead.Load() != nil {
		return 0, wire.NotRun(c.deadReason())
	}
	if n := len(c.free); n > 0 {
		id := c.free[n-1]
		c.free, c.calls[id] = c.free[:n-1], slot
		return id, nil
	}
	c.calls = append(c.calls, slot)
	return uint64(len(c.calls) - 1), nil
}

// deliver hands an inbound response to its waiter, if still present, and
// frees its id. The body is copied out of the read buffer here (see keep):
// it is the caller's from now.
func (c *conn) deliver(f wire.Frame) {
	var slot *callSlot
	c.mu.Lock()
	if f.Corr < uint64(len(c.calls)) {
		if slot = c.calls[f.Corr]; slot != nil {
			c.calls[f.Corr], c.free = nil, append(c.free, f.Corr)
		}
	}
	c.mu.Unlock()
	if slot != nil && slot != abandoned {
		f.Body = c.t.keep(f.Body)
		slot.resp = f
		slot.done <- struct{}{}
	}
}

// abandon stops waiting on slot and pools it. A queued request may still be
// answered, so its id stays reserved; any other is freed. If the slot is no
// longer registered, deliver or close has claimed it and its one send is on
// the way; wait for it so the slot is pooled with an empty channel.
func (c *conn) abandon(id uint64, slot *callSlot, queued bool) {
	c.mu.Lock()
	mine := id < uint64(len(c.calls)) && c.calls[id] == slot
	if mine && queued {
		c.calls[id] = abandoned
	} else if mine {
		c.calls[id], c.free = nil, append(c.free, id)
	}
	c.mu.Unlock()
	if !mine {
		<-slot.done
	}
	slot.put()
}

func (c *conn) deadReason() error {
	if p := c.dead.Load(); p != nil {
		return *p
	}
	return errConnDead
}

// write queues f on the connection. The body is copied into the send
// queue before write returns. A frame the writer refused never reached the
// peer whole, so that error satisfies wire.ErrNotRun.
func (c *conn) write(f wire.Frame) error {
	if f.Oversize() {
		return wire.ErrFrameTooLarge
	}
	if err := c.w.enqueue(f); err != nil {
		return wire.NotRun(c.deadReason())
	}
	c.t.framesOut.Inc()
	c.t.bytesOut.Add(int64(f.WireSize()))
	return nil
}

func (c *conn) call(ctx context.Context, f wire.Frame) (wire.Frame, error) {
	// A frame submitted through Call is a request by definition. Reject a
	// conflicting caller-set kind instead of silently clobbering it; the
	// zero Kind is treated as "unset" and allowed.
	if f.Kind != 0 && f.Kind != wire.KindRequest {
		return wire.Frame{}, fmt.Errorf("transport: Call with frame kind %v (want request or unset)", f.Kind)
	}
	slot := slotPool.Get().(*callSlot)
	id, err := c.register(slot)
	if err != nil {
		slot.put()
		return wire.Frame{}, err
	}
	f.Kind = wire.KindRequest
	f.Corr = id
	if err := c.write(f); err != nil {
		c.abandon(id, slot, false)
		return wire.Frame{}, err
	}
	// Wait patience for the reply before arming ctx: most replies come
	// sooner, and then ctx.Done is never called.
	slot.patience.Reset(patience)
	select {
	case <-slot.done:
		return slot.take()
	case <-slot.patience.C:
	}
	select {
	case <-slot.done:
		return slot.take()
	case <-ctx.Done():
		c.abandon(id, slot, true)
		return wire.Frame{}, ctx.Err()
	}
}

// take returns a completed slot's outcome and pools the slot.
func (s *callSlot) take() (wire.Frame, error) {
	resp, err := s.resp, s.err
	s.put()
	return resp, err
}

// put pools s with its timer stopped and its channel empty. The drain after
// Stop is non-blocking, which is right whether a stopped timer's channel
// may still hold a tick (Go 1.22) or never does (Go 1.23); a tick sent
// after the drain only has the slot's next call watch its context at once.
func (s *callSlot) put() {
	if !s.patience.Stop() {
		select {
		case <-s.patience.C:
		default:
		}
	}
	s.resp, s.err = wire.Frame{}, nil
	slotPool.Put(s)
}

func (c *conn) close(reason error) {
	if !c.dead.CompareAndSwap(nil, &reason) {
		return
	}
	c.w.close()
	_ = c.nc.Close() // best effort; the conn is already condemned
	c.mu.Lock()
	pend := c.calls
	c.calls, c.free = nil, nil
	c.mu.Unlock()
	for _, slot := range pend {
		if slot != nil && slot != abandoned {
			slot.err = reason
			slot.done <- struct{}{}
		}
	}
}

// inbound is one request on its way to a pool worker: its correlation id
// and the body buffer detached from the frame reader, which holds exactly
// its body (a zero-copy reader takes a buffer for every frame, an empty
// body too).
type inbound struct {
	c    *conn
	corr uint64
	buf  *wire.Encoder
}

// run executes the handler and queues the response: copied into the send
// buffer first, then released, and only then is the request's buffer (which
// the response may alias) recycled.
func (in inbound) run() {
	c := in.c
	h := c.t.handler.Load().(Handler)
	resp := h(c.remote, wire.Frame{Kind: wire.KindRequest, Corr: in.corr, Body: in.buf.Bytes()})
	out := wire.Frame{Kind: wire.KindResponse, Corr: in.corr}
	if resp != nil {
		out.Body = resp.Body
	}
	_ = c.write(out) // a dead conn already fails the caller's pending wait
	resp.Release()
	in.buf.Release()
}

// readLoop dispatches inbound frames until the connection dies. It reads
// the socket through a 4 KiB buffer, so small frames arrive many to a
// syscall, while a body at least that large is read straight into its
// pooled body buffer (bufio.Reader.Read bypasses its own buffer for such
// reads). Frames are decoded zero-copy: a response is copied once, for its
// caller (into the reply slab when small); a request takes the body buffer
// with it to the worker pool. The reader gives a body buffer back when it
// looks for the next frame, so a conn waiting for one holds only the socket
// buffer. A frame of any other kind closes the connection, as a bad hello
// does: past the handshake a peer sends requests and responses only.
func (c *conn) readLoop() {
	fr := wire.NewFrameReader(bufio.NewReader(c.nc))
	fr.SetZeroCopy(true)
	for {
		f, err := fr.Next()
		if err == nil && f.Kind != wire.KindRequest && f.Kind != wire.KindResponse {
			err = fmt.Errorf("unexpected %v frame", f.Kind)
		}
		if err != nil {
			c.close(fmt.Errorf("%w: %v", errConnDead, err))
			return
		}
		c.t.framesIn.Inc()
		c.t.bytesIn.Add(int64(f.WireSize()))
		if f.Kind == wire.KindResponse {
			c.deliver(f)
		} else {
			c.t.submit(inbound{c: c, corr: f.Corr, buf: fr.Detach()})
		}
	}
}

// ---------------------------------------------------------------------------
// Batched writer

// maxQueuedBytes is the backpressure threshold: a caller that finds this
// much data already queued blocks until the writer drains, so a stalled
// peer surfaces as slow calls rather than unbounded memory.
const maxQueuedBytes = 1 << 20

var errWriterClosed = errors.New("transport: writer closed")

// connWriter coalesces frames queued by concurrent callers into single
// buffered flushes (the gRPC loopyWriter pattern): every frame enqueued
// while the previous Write syscall was in flight is appended to one batch
// buffer and shipped by the next syscall. Under concurrency this turns N
// small writes into one large one; with a single quiet caller it degrades
// gracefully to one write per frame with no added latency beyond a
// goroutine wakeup. Batch buffers are pooled encoders, borrowed by the
// first frame of a batch and given back once it is written, so a writer
// with nothing queued holds none, and one a burst grew past the pool's cap
// goes back to the allocator.
type connWriter struct {
	nc      net.Conn
	onFatal func(error) // invoked (once) when a flush fails

	mu     sync.Mutex
	cond   *sync.Cond    // signals drain to callers blocked on backpressure
	buf    *wire.Encoder // frames encoded and waiting for the writer goroutine; nil when none are
	frames int           // frame count in buf
	err    error
	closed bool
	wake   chan struct{} // capacity 1: writer-goroutine run signal

	batchFrames, batchBytes *metrics.Histogram
}

func newConnWriter(nc net.Conn, onFatal func(error), batchFrames, batchBytes *metrics.Histogram) *connWriter {
	w := &connWriter{
		nc:          nc,
		onFatal:     onFatal,
		wake:        make(chan struct{}, 1),
		batchFrames: batchFrames,
		batchBytes:  batchBytes,
	}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// enqueue appends f to the pending batch (copying the body) and nudges the
// writer goroutine. It blocks only when maxQueuedBytes are already queued.
func (w *connWriter) enqueue(f wire.Frame) error {
	w.mu.Lock()
	for w.buf != nil && w.buf.Len() >= maxQueuedBytes && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil || w.closed {
		err := w.err
		w.mu.Unlock()
		if err == nil {
			err = errWriterClosed
		}
		return err
	}
	if w.buf == nil {
		w.buf = wire.AcquireEncoder()
	}
	w.buf.Frame(f)
	w.frames++
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return nil
}

// loop is the writer goroutine: take whatever accumulated, flush it with
// one syscall and give its buffer back, repeat until the queue is empty,
// then sleep on wake.
func (w *connWriter) loop() {
	for range w.wake {
		w.mu.Lock()
		for w.buf != nil && w.err == nil {
			batch, nframes := w.buf, w.frames
			w.buf, w.frames = nil, 0
			w.mu.Unlock()

			_, err := w.nc.Write(batch.Bytes())
			w.batchFrames.Record(int64(nframes))
			w.batchBytes.Record(int64(batch.Len()))
			batch.Release()

			w.mu.Lock()
			if err != nil {
				w.err = err
			}
			w.cond.Broadcast()
		}
		err := w.err
		closed := w.closed
		w.mu.Unlock()
		if err != nil {
			w.onFatal(err)
			return
		}
		if closed {
			return
		}
	}
}

// close wakes the writer goroutine (which exits after a final drain
// attempt) and releases any callers blocked on backpressure.
func (w *connWriter) close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------------
// Worker pool

// queueDepth is the worker pool's task queue length.
const queueDepth = 256

// workers is the worker pool's size: 4×GOMAXPROCS, at least 8.
func workers() int { return max(8, 4*runtime.GOMAXPROCS(0)) }

// submit hands an inbound frame to the bounded set of goroutines servicing
// them — the execute-thread pool of a WebLogic server rather than one
// thread per request. It never blocks the read loop: when the queue is full
// it overflows to a fresh goroutine, because a bounded queue with no escape
// valve deadlocks two servers whose pools are saturated with requests to
// each other.
func (t *Transport) submit(task inbound) {
	select {
	case t.tasks <- task:
	default:
		go task.run()
	}
}
