package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync/atomic"
)

// client is a minimal HTTP/1.1 keep-alive client over one net.Conn:
// request bytes are assembled into a reused buffer and only the status
// line, Content-Length and Set-Cookie are parsed from the reply. net/http's
// client would take a large share of the two cores the system under test
// runs on.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte

	status    int
	body      []byte // reply body, valid until the next do
	setCookie []byte // WLSESSION value from Set-Cookie, valid until the next do
}

func dialClient(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 4096), body: make([]byte, 0, 256)}, nil
}

func (c *client) close() error { return c.conn.Close() }

var (
	hdrContentLength = []byte("Content-Length: ")
	hdrSetCookie     = []byte("Set-Cookie: " + cookieName + "=")
)

// do sends one POST and reads the whole reply.
func (c *client) do(path, cookie string, body []byte) error {
	out := append(c.out[:0], "POST "...)
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\nHost: wls\r\nContent-Length: "...)
	out = strconv.AppendInt(out, int64(len(body)), 10)
	if cookie != "" {
		out = append(out, "\r\nCookie: "+cookieName+"="...)
		out = append(out, cookie...)
	}
	out = append(out, "\r\n\r\n"...)
	out = append(out, body...)
	c.out = out
	if _, err := c.conn.Write(out); err != nil {
		return err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 {
		return fmt.Errorf("short status line %q", line)
	}
	if c.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return fmt.Errorf("bad status line %q", line)
	}
	length := -1
	c.setCookie = c.setCookie[:0]
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case bytes.HasPrefix(line, hdrContentLength):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):]))); err != nil {
				return fmt.Errorf("bad Content-Length %q", line)
			}
		case bytes.HasPrefix(line, hdrSetCookie):
			v := line[len(hdrSetCookie):]
			if i := bytes.IndexAny(v, ";\r"); i >= 0 {
				v = v[:i]
			}
			c.setCookie = append(c.setCookie, v...)
		}
	}
	if length < 0 {
		return errors.New("reply without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, 0, length)
	}
	c.body = c.body[:length]
	_, err = io.ReadFull(c.br, c.body)
	return err
}

// reqKind is one request class of the application.
type reqKind uint8

const (
	kEcho reqKind = iota
	kCart
	kBrowse
	kCheckout
)

var kindPath = [...]string{kEcho: "/echo", kCart: "/cart", kBrowse: "/browse", kCheckout: "/checkout"}

// workload is one traffic mix. Names and reasons are repeated in
// BENCHMARK.json and README.md.
type workload struct {
	name     string
	sessions int // live sessions, split evenly over the connections
	warm     int // untimed warm-up requests per connection
	// mix is the share of each kind in percent on the C loop connections;
	// it sums to 100.
	mix [4]int
	// checkoutEvery, when not 0, adds one connection that sends a single
	// /checkout each time the loop connections have completed that many
	// requests, and waits in between.
	checkoutEvery int
}

// shop-mix keeps its checkouts on one extra connection, paced by the count
// of requests the loop connections complete. Drawn per request on every
// connection (the issue's 80/15/5), a 5 % share of 8 ms checkouts leaves
// each connection inside a checkout 90 % of the time: the fast requests then
// run on an idle VM and the workload is a second checkout-durable. With the
// checkouts beside them the loop connections stay busy, and still wait
// whenever a commit holds the inventory lock across its flush, which is
// what the workload is for.
//
// Pacing by count, not by time, pins the share of slow requests. A checkout
// makes about seven requests slower than 0.5 ms: itself, four reads that
// wait for the inventory lock (the next read of each loop connection at each
// of the commit's two lock holds), and two or three of either kind delayed
// while a flush is under way. One checkout per 300 requests keeps them near
// 2.4 % whatever the host's speed, and the reads that waited at 1.6 % of all
// reads, so store.read_p99_us is a read that waited. Paced by time (a third
// connection drawing 82/16/2 with zero think time, the first design) the
// share followed the host: a host 20 % slower sent 20 % fewer fast requests
// per checkout, the share rose from 3.1 % to 3.6 %, and the p95, which sat
// where the curve bends up towards the waiting reads (199 us at p95, 391 us
// at p97, 1 047 us at p98), rose by 28 %, not 20 %.
var workloads = []workload{
	{name: "echo-hot", sessions: 64, warm: 2000, mix: [4]int{kEcho: 100}},
	{name: "session-wide", sessions: 32768, warm: 2000, mix: [4]int{kCart: 100}},
	{name: "checkout-durable", sessions: 64, warm: 32, mix: [4]int{kCheckout: 100}},
	{name: "shop-mix", sessions: 4096, warm: 1000, mix: [4]int{kBrowse: 84, kCart: 16}, checkoutEvery: 300},
}

func (w workload) durable() bool { return w.mix[kCheckout] > 0 || w.checkoutEvery > 0 }

// writers is the number of connections beside the C loop connections.
func (w workload) writers() int {
	if w.checkoutEvery > 0 {
		return 1
	}
	return 0
}

func (w workload) pick(rng *rand.Rand) reqKind {
	p := rng.Intn(100)
	for k, share := range w.mix {
		if p < share {
			return reqKind(k)
		}
		p -= share
	}
	return kEcho
}

// session is the generator's record of one live session.
type session struct {
	cookie string
	n      int // the /cart counter the next reply must exceed by exactly one
}

// worker drives one connection in a closed loop: the next request is sent
// only when the reply to the previous one has been read and checked. It
// owns a disjoint slice of the sessions and of the SKUs, so no two requests
// in flight touch the same session or row.
type worker struct {
	idx      int
	wl       workload
	c        *client
	rng      *rand.Rand
	sessions []session
	skuBase  int // this worker owns SKUs [skuBase, skuBase+skuCount)
	skuCount int
	seq      uint64
	body     [bodyLen]byte

	pace  *pacer // shared with the other workers of a paced workload, else nil
	paced bool   // this is the paced connection: it sends on the pacer's ticks

	lat    []int64 // ns, OK requests of the timed window only
	ok     int
	failed int
	err    error    // first failure
	orders []string // acknowledged order keys
	sold   []int    // acknowledged checkouts per owned SKU
}

// pacer couples the loop connections of a workload to its paced connection:
// every checkoutEvery-th completed request hands the paced connection one
// tick. A tick that finds the previous one unspent is dropped: should the
// loop connections ever complete that many requests inside one checkout,
// the share falls and no checkouts queue up.
type pacer struct {
	every   int64
	done    atomic.Int64
	tick    chan struct{}
	loopers atomic.Int32  // loop connections still running
	stop    chan struct{} // closed when the last of them has finished
}

func newPacer(wl workload, loopers int) *pacer {
	if wl.checkoutEvery == 0 {
		return nil
	}
	p := &pacer{every: int64(wl.checkoutEvery), tick: make(chan struct{}, 1), stop: make(chan struct{})}
	p.loopers.Store(int32(loopers))
	return p
}

// newWorker connects worker idx of conns. With a pacer the last one is the
// paced connection, which sends nothing but checkouts.
func newWorker(idx, conns int, wl workload, seed int64, addr string, pace *pacer) (*worker, error) {
	c, err := dialClient(addr)
	if err != nil {
		return nil, err
	}
	paced := pace != nil && idx == conns-1
	if paced {
		wl.mix = [4]int{kCheckout: 100}
		wl.warm = 32 // as checkout-durable: each is 8 ms
	}
	per := numSKUs / conns
	return &worker{
		idx:      idx,
		wl:       wl,
		c:        c,
		rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(idx))),
		sessions: make([]session, wl.sessions/conns),
		skuBase:  idx * per,
		skuCount: per,
		sold:     make([]int, per),
		pace:     pace,
		paced:    paced,
	}, nil
}

func (w *worker) fail(err error) {
	w.failed++
	if w.err == nil {
		w.err = fmt.Errorf("conn %d: %w", w.idx, err)
	}
}

// nextBody stamps a fresh request id and returns the payload half to fill.
func (w *worker) nextBody() []byte {
	w.seq++
	binary.BigEndian.PutUint64(w.body[:], uint64(w.idx+1)<<40|w.seq)
	return w.body[idLen:]
}

// createSessions makes this worker's sessions with cookie-less /echo
// requests; the proxy spreads them round robin over the servers.
func (w *worker) createSessions() error {
	for i := range w.sessions {
		copy(w.nextBody(), "newsessn")
		if err := w.c.do("/echo", "", w.body[:]); err != nil {
			return err
		}
		if w.c.status != 200 || len(w.c.setCookie) == 0 {
			return fmt.Errorf("session create: status %d, cookie %q", w.c.status, w.c.setCookie)
		}
		w.sessions[i].cookie = string(w.c.setCookie)
	}
	return nil
}

// step sends one request of the workload's mix and checks the reply.
// It reports false when the connection is no longer usable.
func (w *worker) step(timed bool) bool {
	kind := w.wl.pick(w.rng)
	sess := &w.sessions[w.rng.Intn(len(w.sessions))]
	payload := w.nextBody()
	sku := 0
	switch kind {
	case kEcho:
		binary.BigEndian.PutUint64(payload, w.rng.Uint64())
	case kCart:
		copy(payload, "item")
		binary.BigEndian.PutUint32(payload[4:], w.rng.Uint32())
	case kBrowse, kCheckout:
		sku = w.rng.Intn(w.skuCount)
		copy(payload, skuName(w.skuBase+sku))
	}

	start := now()
	err := w.c.do(kindPath[kind], sess.cookie, w.body[:])
	elapsed := now() - start
	if err != nil {
		w.fail(err)
		return false
	}
	if len(w.c.setCookie) > 0 && string(w.c.setCookie) != sess.cookie {
		sess.cookie = string(w.c.setCookie) // the session moved; follow it
	}
	if w.c.status != 200 {
		w.fail(fmt.Errorf("%s: status %d: %s", kindPath[kind], w.c.status, w.c.body))
		return true
	}
	switch kind {
	case kEcho:
		if !bytes.Equal(w.c.body, w.body[:]) {
			w.fail(fmt.Errorf("/echo returned %x, sent %x", w.c.body, w.body))
			return true
		}
	case kCart:
		n, err := strconv.Atoi(string(w.c.body))
		want := sess.n + 1
		if err == nil {
			sess.n = n // follow the server, so one lost update is one failure
		}
		if err != nil || n != want {
			w.fail(fmt.Errorf("/cart returned %q, want %d (lost or stale session state)", w.c.body, want))
			return true
		}
	case kBrowse:
		if want := catalogDesc(skuName(w.skuBase + sku)); string(w.c.body) != want {
			w.fail(fmt.Errorf("/browse returned %q, want %q", w.c.body, want))
			return true
		}
	case kCheckout:
		key := orderKey(reqID(w.body[:]))
		if string(w.c.body) != key {
			w.fail(fmt.Errorf("/checkout returned %q, want %q", w.c.body, key))
			return true
		}
		w.orders = append(w.orders, key)
		w.sold[sku]++
	}
	if timed {
		w.ok++
		w.lat = append(w.lat, elapsed)
	}
	return true
}

// warmUp runs the worker's share of the untimed warm-up; failures there
// fail set-up.
func (w *worker) warmUp() error {
	for i := 0; i < w.wl.warm; i++ {
		if !w.step(false) || w.err != nil {
			break
		}
	}
	return w.err
}

// run sends requests until the clock passes deadline: back to back on a
// loop connection, one per tick on a paced one.
func (w *worker) run(deadline int64) {
	if w.paced {
		for {
			select {
			case <-w.pace.tick:
				if !w.step(true) {
					return
				}
			case <-w.pace.stop:
				return
			}
		}
	}
	if w.pace != nil {
		defer func() {
			if w.pace.loopers.Add(-1) == 0 {
				close(w.pace.stop)
			}
		}()
	}
	for now() < deadline {
		if !w.step(true) {
			return
		}
		if w.pace != nil && w.pace.done.Add(1)%w.pace.every == 0 {
			select {
			case w.pace.tick <- struct{}{}:
			default:
			}
		}
	}
}
