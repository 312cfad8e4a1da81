package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"wls/internal/wire"
)

func newT(t *testing.T) *Transport {
	t.Helper()
	tr, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestCallEcho(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		return &wire.Frame{Body: append([]byte("echo:"), f.Body...)}
	})
	resp, err := a.Call(context.Background(), b.Addr(), wire.Frame{Body: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "echo:hi" {
		t.Fatalf("resp = %q", resp.Body)
	}
}

func TestHandlerSeesAdvertisedAddress(t *testing.T) {
	a, b := newT(t), newT(t)
	fromCh := make(chan string, 1)
	b.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		fromCh <- from
		return &wire.Frame{}
	})
	if _, err := a.Call(context.Background(), b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err)
	}
	if got := <-fromCh; got != a.Addr() {
		t.Fatalf("from = %q, want %q", got, a.Addr())
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		time.Sleep(time.Millisecond)
		return &wire.Frame{Body: f.Body}
	})
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("req-%d", i))
			resp, err := a.Call(context.Background(), b.Addr(), wire.Frame{Body: body})
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Body) != string(body) {
				errs <- fmt.Errorf("cross-wired response: got %q want %q", resp.Body, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBidirectionalOverSingleConnection(t *testing.T) {
	a, b := newT(t), newT(t)
	a.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		return &wire.Frame{Body: []byte("from-a")}
	})
	b.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		return &wire.Frame{Body: []byte("from-b")}
	})
	// a dials b...
	if resp, err := a.Call(context.Background(), b.Addr(), wire.Frame{}); err != nil || string(resp.Body) != "from-b" {
		t.Fatalf("a->b: %v %q", err, resp.Body)
	}
	// ...and b can call back over the same connection (no listener needed
	// on a's side for this path).
	if resp, err := b.Call(context.Background(), a.Addr(), wire.Frame{}); err != nil || string(resp.Body) != "from-a" {
		t.Fatalf("b->a: %v %q", err, resp.Body)
	}
}

func TestCallContextTimeout(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		time.Sleep(time.Second)
		return &wire.Frame{}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, b.Addr(), wire.Frame{}); err != context.DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestCallToDeadPeerFails(t *testing.T) {
	a := newT(t)
	dead, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr()
	dead.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, addr, wire.Frame{}); !errors.Is(err, ErrDial) || !errors.Is(err, wire.ErrNotRun) {
		t.Fatalf("call to dead peer: got %v, want ErrDial, which satisfies wire.ErrNotRun", err)
	}
}

func TestPeerCrashMidCallFails(t *testing.T) {
	a, b := newT(t), newT(t)
	started := make(chan struct{})
	b.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		close(started)
		time.Sleep(2 * time.Second)
		return &wire.Frame{}
	})
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), b.Addr(), wire.Frame{})
		errCh <- err
	}()
	<-started
	b.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("call should fail when peer crashes")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("call hung after peer crash")
	}
}

// TestReconnectAfterPeerRestart: a peer restarts on the same address behind
// a cached conn whose death may not have been read yet. The first call after
// the restart reaches the new peer, or fails: the transport never sends a
// request twice, so one written to the stale conn fails with an error that
// does not satisfy wire.ErrNotRun, and one that does satisfy it (the conn's
// death was read between lookup and write) ran nowhere. No call returns the
// old peer's reply, and the call after it reaches the new peer.
func TestReconnectAfterPeerRestart(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{Body: []byte("v1")} })
	if _, err := a.Call(context.Background(), b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	b.Close()
	// Restart a new transport on the same address.
	var b2 *Transport
	var err error
	for i := 0; i < 20; i++ {
		b2, err = Listen(addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer b2.Close()
	var runs atomic.Int64
	b2.SetHandler(func(string, wire.Frame) *wire.Frame {
		runs.Add(1)
		return &wire.Frame{Body: []byte("v2")}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := a.Call(ctx, addr, wire.Frame{})
	switch {
	case err == nil && string(resp.Body) != "v2":
		t.Fatalf("first call after restart: resp = %q, want v2", resp.Body)
	case errors.Is(err, context.DeadlineExceeded):
		t.Fatalf("first call after restart hung on the stale conn: %v", err)
	case err != nil && runs.Load() != 0:
		t.Fatalf("first call after restart failed (%v) after the new peer ran it", err)
	}
	resp, err = a.Call(ctx, addr, wire.Frame{})
	if err != nil {
		t.Fatalf("second call after restart: %v", err)
	}
	if string(resp.Body) != "v2" {
		t.Fatalf("second call after restart: resp = %q, want v2", resp.Body)
	}
}

// TestSelfCall is the regression test for the connection-identity race: a
// server calling its own address (a round-robin stub picking the local
// member) dials a socket whose accept half registers under the same key.
// The dialer used to "lose the race", close its own end and hand the caller
// the dead accept half — 28 failures in 200 at the time.
func TestSelfCall(t *testing.T) {
	for i := 0; i < 200; i++ {
		tr, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr.SetHandler(func(_ string, f wire.Frame) *wire.Frame { return &wire.Frame{Body: f.Body} })
		for j := 0; j < 3; j++ {
			resp, err := tr.Call(context.Background(), tr.Addr(), wire.Frame{Body: []byte("me")})
			if err != nil || string(resp.Body) != "me" {
				t.Fatalf("transport %d self-call %d: %q, %v", i, j, resp.Body, err)
			}
		}
		tr.Close()
	}
}

// TestSimultaneousOpenKeepsCallsInFlight: two transports dial each other at
// the same moment with calls already riding on whichever conn registered
// first. Neither duplicate may be closed — the peer may be using it — so
// every call must complete.
func TestSimultaneousOpenKeepsCallsInFlight(t *testing.T) {
	const rounds, callers = 40, 8
	for r := 0; r < rounds; r++ {
		a, b := newT(t), newT(t)
		slowEcho := func(_ string, f wire.Frame) *wire.Frame {
			time.Sleep(200 * time.Microsecond) // keep calls in flight across the other side's dial
			return &wire.Frame{Body: f.Body}
		}
		a.SetHandler(slowEcho)
		b.SetHandler(slowEcho)
		start := make(chan struct{})
		errs := make(chan error, 2*callers)
		var wg sync.WaitGroup
		for i := 0; i < 2*callers; i++ {
			src, dst := a, b
			if i%2 == 1 {
				src, dst = b, a
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for j := 0; j < 5; j++ {
					body := []byte(fmt.Sprintf("r%d-c%d-j%d", r, i, j))
					resp, err := src.Call(context.Background(), dst.Addr(), wire.Frame{Body: body})
					if err != nil {
						errs <- fmt.Errorf("round %d caller %d call %d: %w", r, i, j, err)
						return
					}
					if string(resp.Body) != string(body) {
						errs <- fmt.Errorf("round %d: cross-wired: got %q want %q", r, resp.Body, body)
						return
					}
				}
			}(i)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		a.Close()
		b.Close()
	}
}

// TestSharedDialFailureIsNotInherited: callers to a new peer share one dial,
// but a dial that failed only because its own caller had given up must not
// fail the callers waiting behind it.
func TestSharedDialFailureIsNotInherited(t *testing.T) {
	for r := 0; r < 50; r++ {
		a, b := newT(t), newT(t)
		b.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{} })
		gone, cancel := context.WithCancel(context.Background())
		cancel()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			ctx := context.Background()
			if i%2 == 0 {
				ctx = gone
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := a.Call(ctx, b.Addr(), wire.Frame{}); err != nil && ctx != gone {
					t.Errorf("round %d: live caller failed behind a cancelled dial: %v", r, err)
				}
			}()
		}
		wg.Wait()
		a.Close()
		b.Close()
	}
}

// TestCancelledCallsDoNotPoisonPooledSlots races cancellation against
// delivery: half the callers give up at about the moment their response
// arrives, so slots go back to the pool from every side of that race (the
// caller deregistered first; deliver claimed the slot first). A slot pooled
// with a pending send, or completed twice, hands a later call someone
// else's response.
func TestCancelledCallsDoNotPoisonPooledSlots(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(_ string, f wire.Frame) *wire.Frame {
		if len(f.Body) > 0 && f.Body[0] == 's' {
			time.Sleep(100 * time.Microsecond)
		}
		return &wire.Frame{Body: append([]byte(nil), f.Body...)}
	})
	if _, err := a.Call(context.Background(), b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err) // dial here, not under a 50µs deadline
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				kind := "fast"
				if i%2 == 0 {
					kind = "slow"
					ctx, cancel = context.WithTimeout(ctx, time.Duration(50+j%150)*time.Microsecond)
				}
				body := []byte(fmt.Sprintf("%s-%d-%d", kind, i, j))
				resp, err := a.Call(ctx, b.Addr(), wire.Frame{Body: body})
				cancel()
				if err == nil && string(resp.Body) != string(body) {
					errs <- fmt.Errorf("caller %d call %d got %q, want %q", i, j, resp.Body, body)
					return
				}
				if err != nil && (kind == "fast" || err != context.DeadlineExceeded) {
					errs <- fmt.Errorf("caller %d call %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// reservedIDs returns how many ids c holds for calls in flight or for late
// responses and how many it has handed out, and fails t if its free list
// does not name every other id.
func reservedIDs(t *testing.T, c *conn) (held, ids int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, slot := range c.calls {
		if slot != nil {
			held++
		}
	}
	for _, id := range c.free {
		if c.calls[id] != nil {
			t.Fatalf("free id %d is held", id)
		}
	}
	if held+len(c.free) != len(c.calls) {
		t.Fatalf("%d ids held and %d free of %d", held, len(c.free), len(c.calls))
	}
	return held, len(c.calls)
}

// TestLateReplyNeverReachesTheNextCall gives up on a call whose handler
// answers later, then makes a second call on the same connection, which is
// still waiting when the late reply arrives. The first call's id stays
// reserved until that reply comes, so the second call is given another id
// and gets its own reply; freeing the id when the caller gave up would hand
// the second call the first one's reply.
func TestLateReplyNeverReachesTheNextCall(t *testing.T) {
	a, b := newT(t), newT(t)
	release, lateReturned := make(chan struct{}), make(chan struct{})
	b.SetHandler(func(_ string, f wire.Frame) *wire.Frame {
		switch string(f.Body) {
		case "late":
			<-release
			defer close(lateReturned)
		case "second":
			close(release)
			<-lateReturned
			time.Sleep(20 * time.Millisecond) // the late reply is queued first
		}
		return &wire.Frame{Body: append([]byte(nil), f.Body...)}
	})
	ctx := context.Background()
	if _, err := a.Call(ctx, b.Addr(), wire.Frame{Body: []byte("warm")}); err != nil {
		t.Fatal(err)
	}
	c, err := a.getConn(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	_, err = a.Call(short, b.Addr(), wire.Frame{Body: []byte("late")})
	cancel()
	if err != context.DeadlineExceeded {
		t.Fatalf("late call: %v, want the caller's deadline", err)
	}
	if n, _ := reservedIDs(t, c); n != 1 {
		t.Errorf("%d ids reserved after the caller gave up, want 1 (the late reply's)", n)
	}
	resp, err := a.Call(ctx, b.Addr(), wire.Frame{Body: []byte("second")})
	if err != nil || string(resp.Body) != "second" {
		t.Fatalf("second call got %q, %v; want its own reply", resp.Body, err)
	}
	if n, _ := reservedIDs(t, c); n != 0 {
		t.Errorf("%d ids reserved once both replies arrived, want 0", n)
	}
}

// TestIDsStayBelowTheCallsInFlight: 64 callers make 200 calls each on one
// connection, and the peer sees no request id of 64 or more. Ids are
// reused, so they stay below the peak number of calls in flight and take
// one byte on the wire.
func TestIDsStayBelowTheCallsInFlight(t *testing.T) {
	const callers, calls = 64, 200
	a, b := newT(t), newT(t)
	var maxID atomic.Uint64
	b.SetHandler(func(_ string, f wire.Frame) *wire.Frame {
		for cur := maxID.Load(); f.Corr > cur && !maxID.CompareAndSwap(cur, f.Corr); cur = maxID.Load() {
		}
		return &wire.Frame{Body: f.Body}
	})
	ctx := context.Background()
	if _, err := a.Call(ctx, b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				body := []byte(fmt.Sprintf("%d-%d", i, j))
				resp, err := a.Call(ctx, b.Addr(), wire.Frame{Body: body})
				if err != nil || !bytes.Equal(resp.Body, body) {
					t.Errorf("caller %d call %d: got %q, %v; want %q", i, j, resp.Body, err, body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if m := maxID.Load(); m >= callers {
		t.Fatalf("a request carried id %d with at most %d calls in flight", m, callers)
	}
	c, err := a.getConn(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := reservedIDs(t, c); n != 0 {
		t.Fatalf("%d ids reserved once every call returned", n)
	}
}

// TestRefusedCallFreesItsID: a request the connection refuses to queue
// (here an oversize one) never reaches the peer, so its id is free at once
// and the next call is given it.
func TestRefusedCallFreesItsID(t *testing.T) {
	a, b := newT(t), newT(t)
	seen := make(chan uint64, 2)
	b.SetHandler(func(_ string, f wire.Frame) *wire.Frame {
		seen <- f.Corr
		return &wire.Frame{}
	})
	ctx := context.Background()
	if _, err := a.Call(ctx, b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err)
	}
	first := <-seen
	if _, err := a.Call(ctx, b.Addr(), wire.Frame{Body: make([]byte, wire.MaxFrameSize)}); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversize call: %v, want wire.ErrFrameTooLarge", err)
	}
	if _, err := a.Call(ctx, b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err)
	}
	if next := <-seen; next != first {
		t.Fatalf("the call after a refused one carried id %d, want %d again", next, first)
	}
	c, err := a.getConn(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if n, ids := reservedIDs(t, c); n != 0 || ids != 1 {
		t.Fatalf("%d ids reserved of %d, want 0 of 1", n, ids)
	}
}

// TestCallOnADeadConnIsNotRun is the "dead before write" row made
// deterministic: the connection a call looked up dies before the call
// registers. The call fails with an error satisfying wire.ErrNotRun and
// leaves no id reserved.
func TestCallOnADeadConnIsNotRun(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(echoHandler)
	ctx := context.Background()
	c, err := a.getConn(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.close(fmt.Errorf("%w: closed by the test", errConnDead))
	if _, err := c.call(ctx, wire.Frame{Body: []byte("x")}); !errors.Is(err, wire.ErrNotRun) {
		t.Fatalf("call on a dead conn: %v, want an error satisfying wire.ErrNotRun", err)
	}
	if n, ids := reservedIDs(t, c); n != 0 || ids != 0 {
		t.Fatalf("%d ids reserved of %d on a dead conn, want none", n, ids)
	}
}

// TestRequestBufferHeldUntilResponseQueued pins the release order of the
// pooled request buffers with poisoning on: a handler may block while its
// neighbours' buffers are recycled, and may return a frame whose body
// aliases the request — the buffer must survive until that response has
// been copied into the send buffer.
func TestRequestBufferHeldUntilResponseQueued(t *testing.T) {
	wire.PoisonReleased(true)
	defer wire.PoisonReleased(false)
	a, b := newT(t), newT(t)
	b.SetHandler(func(_ string, f wire.Frame) *wire.Frame {
		before := string(f.Body)
		if len(before) > 0 && before[0] == 's' {
			time.Sleep(time.Millisecond)
		}
		if string(f.Body) != before {
			t.Errorf("request body changed under its handler: %q -> %q", before, f.Body)
		}
		return &wire.Frame{Body: f.Body}
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 150; j++ {
				kind := "fast"
				if (i+j)%8 == 0 {
					kind = "slow"
				}
				body := []byte(fmt.Sprintf("%s-%d-%d", kind, i, j))
				resp, err := a.Call(context.Background(), b.Addr(), wire.Frame{Body: body})
				if err != nil || string(resp.Body) != string(body) {
					t.Errorf("caller %d call %d: got %q, %v; want %q", i, j, resp.Body, err, body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// patterned returns n bytes that differ with seed and repeat every 257
// bytes, a period no buffer size divides, so a body that came back shifted,
// cut, poisoned or someone else's does not compare equal.
func patterned(n, seed int) []byte {
	b := make([]byte, n)
	for i := 0; i < n && i < 257; i++ {
		b[i] = byte(seed*7 + i*i)
	}
	for k := 257; k < n; k *= 2 {
		copy(b[k:], b[:k])
	}
	return b
}

func echoHandler(_ string, f wire.Frame) *wire.Frame { return &wire.Frame{Body: f.Body} }

// echoBurst makes 64 concurrent 200 KiB echo calls from one transport to
// another: every batch on the connection, both ways, grows past what a
// pooled buffer may keep.
func echoBurst(t *testing.T, from, to *Transport) {
	t.Helper()
	body := patterned(200<<10, 1)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := from.Call(context.Background(), to.Addr(), wire.Frame{Body: body})
			if err != nil || !bytes.Equal(resp.Body, body) {
				t.Errorf("200 KiB echo: %d bytes back, err %v", len(resp.Body), err)
			}
		}()
	}
	wg.Wait()
}

// liveConns returns every conn tr tracks.
func liveConns(tr *Transport) []*conn {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var cs []*conn
	for _, c := range *tr.conns.Load() {
		cs = append(cs, c)
	}
	for c := range tr.extras {
		cs = append(cs, c)
	}
	return cs
}

// waitWritersIdle waits, for up to two seconds, until no writer of trs'
// connections holds a batch buffer, and returns how many still do.
func waitWritersIdle(trs ...*Transport) (holding int) {
	holds := func(w *connWriter) bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.buf != nil
	}
	deadline := time.Now().Add(2 * time.Second) //wls:wallclock test-only poll bound
	for _, tr := range trs {
		for _, c := range liveConns(tr) {
			for holds(c.w) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if holds(c.w) {
				holding++
			}
		}
	}
	return holding
}

// TestGateRaceIdleWritersHoldNoBuffer: a burst of 200 KiB echoes grows the batch
// buffers at both ends of the connection; once it is idle, neither writer
// holds one. A writer that kept its last two batch buffers for the life of
// the connection pinned up to 512 KiB per end after one burst.
func TestGateRaceIdleWritersHoldNoBuffer(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(echoHandler)
	echoBurst(t, a, b)
	if ends := len(liveConns(a)) + len(liveConns(b)); ends != 2 {
		t.Fatalf("%d connection ends, want 2", ends)
	}
	if n := waitWritersIdle(a, b); n > 0 {
		t.Fatalf("%d of 2 idle writers still hold a batch buffer", n)
	}
}

// TestGateRaceFramesSpanningTheReadBuffer: concurrent callers' frames share write
// batches and socket reads, so bodies on either side of the 4 KiB socket
// buffer — and past it, up to one near MaxFrameSize, which the reader takes
// straight into its body buffer — start and end at every offset of it.
// With every released buffer poisoned, each echo must come back
// byte-identical.
func TestGateRaceFramesSpanningTheReadBuffer(t *testing.T) {
	wire.PoisonReleased(true)
	defer wire.PoisonReleased(false)
	a, b := newT(t), newT(t)
	b.SetHandler(echoHandler)
	call := func(n, seed int) {
		want := patterned(n, seed)
		resp, err := a.Call(context.Background(), b.Addr(), wire.Frame{Body: want})
		if err != nil || !bytes.Equal(resp.Body, want) {
			t.Errorf("%d-byte echo (seed %d): %d bytes back, equal %v, err %v", n, seed, len(resp.Body), bytes.Equal(resp.Body, want), err)
		}
	}
	const callers, rounds = 4, 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, n := range []int{0, 1, 4095, 4096, 4097, 65537} {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for r := 0; r < rounds; r++ {
					call(n, c*rounds+r)
				}
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		call(wire.MaxFrameSize-16, 0)
	}()
	close(start)
	wg.Wait()
}

// TestCloseFailsPendingCalls: Transport.Close with calls in flight
// completes every pooled slot exactly once, with an error that does not
// satisfy wire.ErrNotRun: the peer may have run them.
func TestCloseFailsPendingCalls(t *testing.T) {
	a, b := newT(t), newT(t)
	release := make(chan struct{})
	b.SetHandler(func(string, wire.Frame) *wire.Frame { <-release; return &wire.Frame{} })
	defer close(release)
	const n = 20
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := a.Call(context.Background(), b.Addr(), wire.Frame{})
			errCh <- err
		}()
	}
	for b.Metrics().Counter("transport.frames.in").Value() < n {
		time.Sleep(time.Millisecond)
	}
	a.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatal("call survived Close of its transport")
			}
			if errors.Is(err, wire.ErrNotRun) {
				t.Fatalf("call pending at Close claims it never ran: %v", err)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("pending call hung after Close")
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	a := newT(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(context.Background(), "127.0.0.1:1", wire.Frame{}); err != ErrClosed || !errors.Is(err, wire.ErrNotRun) {
		t.Fatalf("want ErrClosed, which satisfies wire.ErrNotRun, got %v", err)
	}
}

func TestManyClientsConcentrate(t *testing.T) {
	// Session concentration (§2.1): many logical clients share one
	// transport; the backend sees a bounded number of connections.
	backend := newT(t)
	var inboundHandled atomic.Int64
	backend.SetHandler(func(string, wire.Frame) *wire.Frame {
		inboundHandled.Add(1)
		return &wire.Frame{}
	})
	front := newT(t)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := front.Call(context.Background(), backend.Addr(), wire.Frame{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if inboundHandled.Load() != 100 {
		t.Fatalf("handled %d, want 100", inboundHandled.Load())
	}
	// The 100 first calls shared one dial: one socket, not a herd of them.
	backend.mu.Lock()
	socks := len(*backend.conns.Load()) + len(backend.extras)
	backend.mu.Unlock()
	if socks != 1 {
		t.Fatalf("backend holds %d connections from one front end, want 1", socks)
	}
}

// TestStress64CallersAcross4Transports is the -race stress test: a full
// mesh of 4 transports, 64 concurrent callers spread across them, every
// caller hammering every peer. It exercises the batched writer, the
// call table, and the worker pool under contention.
func TestStress64CallersAcross4Transports(t *testing.T) {
	const nodes = 4
	const callers = 64
	const callsPerCaller = 40

	ts := make([]*Transport, nodes)
	for i := range ts {
		ts[i] = newT(t)
		self := ts[i].Addr()
		ts[i].SetHandler(func(from string, f wire.Frame) *wire.Frame {
			return &wire.Frame{Body: append([]byte(self+"|"), f.Body...)}
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := ts[i%nodes]
			for j := 0; j < callsPerCaller; j++ {
				dst := ts[(i+j)%nodes]
				if dst == src {
					dst = ts[(i+j+1)%nodes]
				}
				body := []byte(fmt.Sprintf("c%d-j%d", i, j))
				resp, err := src.Call(context.Background(), dst.Addr(), wire.Frame{Body: body})
				if err != nil {
					errs <- err
					return
				}
				want := dst.Addr() + "|" + string(body)
				if string(resp.Body) != want {
					errs <- fmt.Errorf("cross-wired: got %q want %q", resp.Body, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDuplicateInboundConnClosed guards the Close-leak fix: a second
// inbound connection announcing an already-known peer must still be
// tracked, so Transport.Close terminates it and its read loop.
func TestDuplicateInboundConnClosed(t *testing.T) {
	tr, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		nc, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(nc, helloFrame("198.51.100.1:7001")); err != nil {
			t.Fatal(err)
		}
		return nc
	}
	first, second := dial(), dial()
	defer first.Close()
	defer second.Close()
	// Both conns are serving: a request on each gets a response.
	for i, nc := range []net.Conn{first, second} {
		if err := wire.WriteFrame(nc, wire.Frame{Kind: wire.KindRequest, Corr: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(nc); err != nil {
			t.Fatalf("conn %d not serving: %v", i, err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must reap BOTH conns; before the fix the duplicate leaked and
	// this read blocked forever.
	for i, nc := range []net.Conn{first, second} {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //wls:wallclock test-only I/O deadline
		if _, err := wire.ReadFrame(nc); err == nil {
			t.Fatalf("conn %d still open after Transport.Close", i)
		}
	}
}

// TestCallRejectsConflictingKind guards the kind-clobbering fix: Call
// refuses a frame whose caller-set kind is not a request.
func TestCallRejectsConflictingKind(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{} })
	_, err := a.Call(context.Background(), b.Addr(), wire.Frame{Kind: wire.KindOneWay})
	if err == nil {
		t.Fatal("Call with KindOneWay should be rejected, not silently rewritten")
	}
	// The zero kind means "unset" and still works.
	if _, err := a.Call(context.Background(), b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err)
	}
}

// TestCallNoRetryAfterContextDone: a stale cached conn plus an
// already-expired context must fail immediately: Call sends nothing again
// and dials nothing.
func TestCallNoRetryAfterContextDone(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{} })
	if _, err := a.Call(context.Background(), b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	b.Close() // cached conn in a is now stale
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now() //wls:wallclock test-only elapsed check
	_, err := a.Call(ctx, addr, wire.Frame{})
	if err == nil {
		t.Fatal("want error")
	}
	//wls:wallclock test-only elapsed check
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled call took %v; retry re-armed after ctx done", elapsed)
	}
}

// TestWorkerPoolBounded holds every handler on a gate and makes more
// calls than the pool has workers and queue slots together: the calls the
// queue cannot take must each run on an overflow goroutine, so all of them
// besides the queued ones reach a handler while the gate is shut, and all
// complete once it opens. A submit that waited for queue space instead
// would stall the read loop with only the workers' calls started.
func TestWorkerPoolBounded(t *testing.T) {
	srv, cl := newT(t), newT(t)
	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	defer release()
	var entered atomic.Int64
	srv.SetHandler(func(_ string, f wire.Frame) *wire.Frame {
		entered.Add(1)
		<-gate
		return &wire.Frame{Body: f.Body}
	})
	const overflow = 8
	calls := workers() + queueDepth + overflow
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("r%d", i))
			resp, err := cl.Call(context.Background(), srv.Addr(), wire.Frame{Body: body})
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Body) != string(body) {
				errs <- fmt.Errorf("got %q want %q", resp.Body, body)
			}
		}(i)
	}
	// Every worker's call, plus the overflow, runs while the gate is shut.
	running := int64(calls - queueDepth)
	deadline := time.Now().Add(5 * time.Second) //wls:wallclock test-only poll bound
	for entered.Load() < running && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := entered.Load(); got < running {
		t.Errorf("%d of %d calls reached a handler behind the gate; want %d (%d workers + %d overflow)", got, calls, running, workers(), overflow)
	}
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestUnknownFrameKindClosesTheConnection: past the hello a peer may send
// requests and responses only. Any other frame kind — a one-way frame, the
// unassigned kind 4, a second hello — closes the connection before a
// handler sees it.
func TestUnknownFrameKindClosesTheConnection(t *testing.T) {
	tr := newT(t)
	var handled atomic.Int32
	tr.SetHandler(func(string, wire.Frame) *wire.Frame { handled.Add(1); return &wire.Frame{} })
	for _, kind := range []wire.Kind{wire.KindOneWay, wire.Kind(4), wire.KindAnnounce} {
		nc, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		stream := wire.AppendFrame(nil, helloFrame("198.51.100.1:7001"))
		stream = wire.AppendFrame(stream, wire.Frame{Kind: kind, Corr: 1, Body: []byte("msg")})
		if _, err := nc.Write(stream); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //wls:wallclock test-only I/O deadline
		if n, err := nc.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Errorf("%v frame: read %d bytes, err %v; want EOF", kind, n, err)
		}
		nc.Close()
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("%d frames of unknown kinds reached the handler", n)
	}
}

// TestStrayResponsesAreDropped: a response naming an id this end never
// handed out, however large, is dropped, and the connection keeps serving.
func TestStrayResponsesAreDropped(t *testing.T) {
	tr := newT(t)
	tr.SetHandler(echoHandler)
	nc, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	stream := wire.AppendFrame(nil, helloFrame("198.51.100.1:7001"))
	for _, id := range []uint64{0, 1, 1 << 40} {
		stream = wire.AppendFrame(stream, wire.Frame{Kind: wire.KindResponse, Corr: id, Body: []byte("stray")})
	}
	stream = wire.AppendFrame(stream, wire.Frame{Kind: wire.KindRequest, Corr: 7, Body: []byte("ping")})
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //wls:wallclock test-only I/O deadline
	f, err := wire.ReadFrame(nc)
	if err != nil || f.Kind != wire.KindResponse || f.Corr != 7 || string(f.Body) != "ping" {
		t.Fatalf("after stray responses, a request got %v %d %q, %v; want its echo", f.Kind, f.Corr, f.Body, err)
	}
}

func TestTransportMetrics(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{} })
	const calls = 10
	for i := 0; i < calls; i++ {
		if _, err := a.Call(context.Background(), b.Addr(), wire.Frame{Body: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	// a sent ≥10 request frames (plus the handshake is not counted: it
	// bypasses conn.write); b saw them arrive and sent responses back.
	if got := a.Metrics().Counter("transport.frames.out").Value(); got < calls {
		t.Fatalf("a frames.out = %d, want >= %d", got, calls)
	}
	if got := b.Metrics().Counter("transport.frames.in").Value(); got < calls {
		t.Fatalf("b frames.in = %d, want >= %d", got, calls)
	}
	if got := b.Metrics().Histogram("transport.batch.frames").Count(); got == 0 {
		t.Fatal("no batches recorded on b")
	}
	if a.Metrics().Counter("transport.bytes.out").Value() == 0 {
		t.Fatal("bytes.out not recorded")
	}
}

func benchEcho(b *testing.B, callers int) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{Body: []byte("ok")} })
	cl, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	body := make([]byte, 128)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / callers
	if per == 0 {
		per = 1
	}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := cl.Call(ctx, srv.Addr(), wire.Frame{Body: body}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkEcho64Batched(b *testing.B) { benchEcho(b, 64) }

func BenchmarkCallRoundTrip(b *testing.B) {
	tr1, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tr1.Close()
	tr2, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tr2.Close()
	tr2.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{} })
	ctx := context.Background()
	body := make([]byte, 128)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := tr1.Call(ctx, tr2.Addr(), wire.Frame{Body: body}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestHandshakeRefusesOtherFrameFormats: a peer built with the fixed 13-byte
// header (wire format 1) is closed on its hello instead of having its
// frames misread, and so is a hello in today's framing that names another
// version — the previous one, whose method bodies differ, included, and
// version 3, whose RMI requests spell every name and whose replies name
// their server — or none.
func TestHandshakeRefusesOtherFrameFormats(t *testing.T) {
	tr := newT(t)
	var handled atomic.Int32
	tr.SetHandler(func(string, wire.Frame) *wire.Frame { handled.Add(1); return &wire.Frame{} })
	const addr = "198.51.100.1:7001"

	// uint32 length, kind, uint64 correlation id, then the bare address.
	oldHello := binary.BigEndian.AppendUint32(nil, uint32(1+8+len(addr)))
	oldHello = append(oldHello, byte(wire.KindAnnounce))
	oldHello = binary.BigEndian.AppendUint64(oldHello, 0)
	oldHello = append(oldHello, addr...)
	oldRequest := binary.BigEndian.AppendUint32(nil, 1+8)
	oldRequest = append(oldRequest, byte(wire.KindRequest))
	oldRequest = binary.BigEndian.AppendUint64(oldRequest, 1)

	otherVersion := helloFrame(addr)
	otherVersion.Body[0] = wire.FormatVersion + 1
	prevVersion := helloFrame(addr)
	prevVersion.Body[0] = wire.FormatVersion - 1
	version3 := helloFrame(addr)
	version3.Body[0] = 3
	version4 := helloFrame(addr) // cookies forwarded as base64 text
	version4.Body[0] = 4
	for name, hello := range map[string][]byte{
		"fixed-header hello": append(oldHello, oldRequest...),
		"other version":      wire.AppendFrame(nil, otherVersion),
		"previous version":   wire.AppendFrame(nil, prevVersion),
		"version 3":          wire.AppendFrame(nil, version3),
		"version 4":          wire.AppendFrame(nil, version4),
		"no version":         wire.AppendFrame(nil, wire.Frame{Kind: wire.KindAnnounce}),
		"not a hello":        wire.AppendFrame(nil, wire.Frame{Kind: wire.KindRequest, Corr: 1, Body: helloFrame(addr).Body}),
	} {
		nc, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(hello); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //wls:wallclock test-only I/O deadline
		if n, err := nc.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: read %d bytes, err %v; want the connection closed", name, n, err)
		}
		nc.Close()
	}
	if tr.NumConns() != 0 || handled.Load() != 0 {
		t.Fatalf("%d conns tracked, %d frames handled from peers that were refused", tr.NumConns(), handled.Load())
	}
}

// TestBytesOutIsWhatThePeerReceives puts a byte-counting relay between two
// transports: transport.bytes.out on either side is exactly what crossed
// the socket towards the other (the dialer's hello aside, which is not
// counted), at every width of the length varint and at 1- and 2-byte
// correlation ids.
func TestBytesOutIsWhatThePeerReceives(t *testing.T) {
	a, b := newT(t), newT(t)
	b.SetHandler(func(_ string, f wire.Frame) *wire.Frame {
		return &wire.Frame{Body: f.Body[:len(f.Body)/2]}
	})

	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	var toB, toA atomic.Int64
	go func() {
		from, err := relay.Accept()
		if err != nil {
			return
		}
		to, err := net.Dial("tcp", b.Addr())
		if err != nil {
			from.Close()
			return
		}
		pipe := func(dst, src net.Conn, n *atomic.Int64) {
			defer dst.Close()
			buf := make([]byte, 32<<10)
			for {
				k, err := src.Read(buf)
				n.Add(int64(k))
				if _, werr := dst.Write(buf[:k]); err != nil || werr != nil {
					return
				}
			}
		}
		go pipe(to, from, &toB)
		pipe(from, to, &toA)
	}()

	ctx := context.Background()
	body := make([]byte, 40000)
	// 300 calls take the correlation id from 1 to 2 bytes; the body sizes
	// take the length prefix through 1, 2 and 3 bytes.
	for i := 0; i < 300; i++ {
		n := []int{0, 1, 120, 121, 122, 123, 124, 125, 126, 127, 128, 129, 300, 16380, 16384, 40000}[i%16]
		resp, err := a.Call(ctx, relay.Addr().String(), wire.Frame{Body: body[:n]})
		if err != nil || len(resp.Body) != n/2 {
			t.Fatalf("call %d: %d bytes back, err %v", i, len(resp.Body), err)
		}
	}
	hello := int64(helloFrame(a.Addr()).WireSize())
	outA := a.Metrics().Counter("transport.bytes.out")
	outB := b.Metrics().Counter("transport.bytes.out")
	// A side counts a frame just after queueing it, so the last response
	// may reach the caller a moment before b has counted it.
	deadline := time.Now().Add(2 * time.Second) //wls:wallclock test-only poll bound
	for outB.Value() != toA.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, want := outA.Value(), toB.Load()-hello; got != want {
		t.Errorf("a: transport.bytes.out = %d, b's socket was sent %d (after a %d-byte hello)", got, want, hello)
	}
	if got, want := outB.Value(), toA.Load(); got != want {
		t.Errorf("b: transport.bytes.out = %d, a's socket was sent %d", got, want)
	}
	if got, want := b.Metrics().Counter("transport.bytes.in").Value(), toB.Load()-hello; got != want {
		t.Errorf("b: transport.bytes.in = %d, its socket was sent %d", got, want)
	}
}

// TestInboundSize: every slot of a node's worker-pool queue (queueDepth
// of them) is an inbound, so it holds only what a worker cannot read from
// the body buffer; the frame it came in is rebuilt from its id and buffer.
func TestInboundSize(t *testing.T) {
	if got := unsafe.Sizeof(inbound{}); got != 24 {
		t.Fatalf("inbound is %d bytes, want 24", got)
	}
}

// TestCancelIsSeenWithinPatience cancels calls whose handler stalls: before
// the call's patience runs out, just after it is armed, and well after.
// Each call returns ctx.Err() within patience of its cancel, plus 50 ms
// for the scheduler.
func TestCancelIsSeenWithinPatience(t *testing.T) {
	a, b := newT(t), newT(t)
	release := make(chan struct{})
	defer close(release)
	b.SetHandler(func(_ string, f wire.Frame) *wire.Frame {
		if string(f.Body) == "stall" {
			<-release
		}
		return &wire.Frame{}
	})
	if _, err := a.Call(context.Background(), b.Addr(), wire.Frame{}); err != nil {
		t.Fatal(err)
	}
	for _, after := range []time.Duration{0, patience / 2, 5 * patience} {
		ctx, cancel := context.WithCancel(context.Background())
		//wls:wallclock test-only cancel on the real clock
		time.AfterFunc(after, cancel)
		start := time.Now() //wls:wallclock test-only elapsed check
		_, err := a.Call(ctx, b.Addr(), wire.Frame{Body: []byte("stall")})
		//wls:wallclock test-only elapsed check
		elapsed := time.Since(start)
		if err != context.Canceled {
			t.Errorf("cancel after %v: got %v, want %v", after, err, context.Canceled)
		}
		if limit := after + patience + 50*time.Millisecond; elapsed > limit {
			t.Errorf("cancel after %v: the call returned after %v, over %v", after, elapsed, limit)
		}
	}
}

// stamp fills b with a pattern no other (caller, call) pair writes.
func stamp(b []byte, caller, call int) {
	for k := range b {
		b[k] = byte(k)
	}
	b[0], b[1], b[2] = byte(caller), byte(call>>8), byte(call)
}

// within reports whether b starts inside the array behind s.
func within(b, s []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s[:cap(s)])))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p < lo+uintptr(cap(s))
}

// TestRepliesOwnTheirBytes: 64 callers make 500 echo calls each with
// distinct bodies, most small enough to be carved from the transport's
// reply slab, every hundredth 300 B, with released buffers poisoned. Each
// caller overwrites every reply it gets and appends to it, keeps it, and
// checks all it kept once every caller is done: no reply shares bytes with
// another, nor with a buffer the transport reuses, and an append to a
// reply never writes into the slab. Then a small reply lies in the slab
// and a 300 B one does not: it has its own array.
func TestRepliesOwnTheirBytes(t *testing.T) {
	const callers, calls = 64, 500
	wire.PoisonReleased(true)
	defer wire.PoisonReleased(false)
	a, b := newT(t), newT(t)
	b.SetHandler(echoHandler)
	body := func(caller, call int) []byte {
		n := 8 + (caller+call)%48
		if call%100 == 99 {
			n = 300
		}
		p := make([]byte, n)
		stamp(p, caller, call)
		return p
	}
	kept := make([][][]byte, callers)
	var wg sync.WaitGroup
	for i := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				want := body(i, j)
				resp, err := a.Call(context.Background(), b.Addr(), wire.Frame{Body: want})
				if err != nil || !bytes.Equal(resp.Body, want) {
					t.Errorf("caller %d call %d: got %d B, %v; want its own %d B", i, j, len(resp.Body), err, len(want))
					return
				}
				got := append(resp.Body, 0, 0, 0)
				stamp(got, callers-1-i, calls-1-j)
				kept[i] = append(kept[i], got)
			}
		}()
	}
	wg.Wait()
	for i, replies := range kept {
		for j, got := range replies {
			want := make([]byte, len(got))
			stamp(want, callers-1-i, calls-1-j)
			if !bytes.Equal(got, want) {
				t.Fatalf("caller %d call %d: its reply changed under it", i, j)
			}
		}
	}
	small, err := a.Call(context.Background(), b.Addr(), wire.Frame{Body: body(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	large, err := a.Call(context.Background(), b.Addr(), wire.Frame{Body: body(0, 99)})
	if err != nil {
		t.Fatal(err)
	}
	a.slabMu.Lock()
	slab := a.slab
	a.slabMu.Unlock()
	if !within(small.Body, slab) || cap(small.Body) != len(small.Body) {
		t.Errorf("a %d B reply is not carved from the slab, capped at its length", len(small.Body))
	}
	if within(large.Body, slab) {
		t.Errorf("a %d B reply was carved from the slab", len(large.Body))
	}
}
