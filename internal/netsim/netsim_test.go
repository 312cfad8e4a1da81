package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"wls/internal/vclock"
	"wls/internal/wire"
)

func echoHandler(from string, f wire.Frame) *wire.Frame {
	return &wire.Frame{Kind: wire.KindResponse, Corr: f.Corr, Body: f.Body}
}

func newPair(t *testing.T) (*Network, *Endpoint, *Endpoint) {
	t.Helper()
	n := New(vclock.System)
	a := n.Endpoint("a:1")
	b := n.Endpoint("b:1")
	b.SetHandler(echoHandler)
	return n, a, b
}

func TestCallEcho(t *testing.T) {
	_, a, _ := newPair(t)
	resp, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest, Corr: 9, Body: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Corr != 9 || string(resp.Body) != "hi" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestUnknownDestination(t *testing.T) {
	_, a, _ := newPair(t)
	if _, err := a.Call(context.Background(), "nowhere", wire.Frame{Kind: wire.KindRequest}); err != ErrUnreachable {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestCrashedDestination(t *testing.T) {
	_, a, b := newPair(t)
	b.Close()
	if _, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest}); err != ErrUnreachable {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestClosedSender(t *testing.T) {
	_, a, _ := newPair(t)
	a.Close()
	if _, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest}); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestPartition(t *testing.T) {
	n, a, _ := newPair(t)
	n.SetPartitioned("a:1", "b:1", true)
	if _, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest}); err != ErrUnreachable {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	n.SetPartitioned("a:1", "b:1", false)
	if _, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest}); err != nil {
		t.Fatalf("healed partition should pass: %v", err)
	}
}

func TestIsolate(t *testing.T) {
	n := New(vclock.System)
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	c := n.Endpoint("c")
	for _, ep := range []*Endpoint{b, c} {
		ep.SetHandler(echoHandler)
	}
	n.Isolate("a", true)
	if _, err := a.Call(context.Background(), "b", wire.Frame{Kind: wire.KindRequest}); err == nil {
		t.Fatal("isolated endpoint should not reach b")
	}
	// b and c can still talk.
	b.SetHandler(echoHandler)
	if _, err := c.Call(context.Background(), "b", wire.Frame{Kind: wire.KindRequest}); err != nil {
		t.Fatalf("b<->c should be fine: %v", err)
	}
	n.Isolate("a", false)
	if _, err := a.Call(context.Background(), "b", wire.Frame{Kind: wire.KindRequest}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestFenceDropsBothDirections(t *testing.T) {
	n, a, b := newPair(t)
	a.SetHandler(echoHandler)
	n.Fence("b:1", true)
	if _, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest}); err != ErrFenced {
		t.Fatalf("to fenced: want ErrFenced, got %v", err)
	}
	if _, err := b.Call(context.Background(), "a:1", wire.Frame{Kind: wire.KindRequest}); err != ErrFenced {
		t.Fatalf("from fenced: want ErrFenced, got %v", err)
	}
	n.Fence("b:1", false)
	if _, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest}); err != nil {
		t.Fatalf("after unfence: %v", err)
	}
}

func TestFreezeBlocksThenThaws(t *testing.T) {
	n, a, _ := newPair(t)
	n.Freeze("b:1", true)
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest, Body: []byte("z")})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("call completed while frozen: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	n.Freeze("b:1", false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("after thaw: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call did not complete after thaw")
	}
}

func TestFreezeWithContextTimeout(t *testing.T) {
	n, a, _ := newPair(t)
	n.Freeze("b:1", true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, "b:1", wire.Frame{Kind: wire.KindRequest}); err != context.DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestLatencyOnVirtualClock(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	n := New(clk)
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	b.SetHandler(echoHandler)
	n.SetLatency("a", "b", 10*time.Millisecond)
	done := make(chan struct{})
	go func() {
		if _, err := a.Call(context.Background(), "b", wire.Frame{Kind: wire.KindRequest}); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	// Without advancing the clock the call must stay pending.
	select {
	case <-done:
		t.Fatal("call completed without clock advance")
	case <-time.After(30 * time.Millisecond):
	}
	// Advance enough for request + response latency. Advance repeatedly:
	// the response timer is only scheduled after the handler runs.
	for i := 0; i < 10; i++ {
		clk.Advance(10 * time.Millisecond)
		select {
		case <-done:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("call never completed under virtual latency")
}

func TestRestartAfterCrash(t *testing.T) {
	n, a, b := newPair(t)
	b.Close()
	ep := n.Restart("b:1")
	ep.SetHandler(echoHandler)
	if _, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest}); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}

func TestDuplicateEndpointPanics(t *testing.T) {
	n := New(vclock.System)
	n.Endpoint("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate endpoint should panic")
		}
	}()
	n.Endpoint("x")
}

func TestHandlerlessEndpointAnswersNil(t *testing.T) {
	n := New(vclock.System)
	a := n.Endpoint("a")
	n.Endpoint("b") // no handler
	if _, err := a.Call(context.Background(), "b", wire.Frame{Kind: wire.KindRequest}); err != ErrUnreachable {
		t.Fatalf("want ErrUnreachable for handlerless endpoint, got %v", err)
	}
}

func TestStatsCountSent(t *testing.T) {
	_, a, _ := newPair(t)
	for i := 0; i < 5; i++ {
		if _, err := a.Call(context.Background(), "b:1", wire.Frame{Kind: wire.KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	if sent := a.net.Stats(); sent < 5 {
		t.Fatalf("sent = %d, want >= 5", sent)
	}
}

// TestNotRunOnlyBeforeDelivery: every error a Call returns before a handler
// ran satisfies wire.ErrNotRun and still names its fault; once a handler
// has run — its reply lost on the way back, or none returned — the error
// does not.
func TestNotRunOnlyBeforeDelivery(t *testing.T) {
	call := func(a *Endpoint, to string) error {
		_, err := a.Call(context.Background(), to, wire.Frame{Kind: wire.KindRequest})
		return err
	}
	n, a, b := newPair(t)
	n.SetPartitioned("a:1", "b:1", true)
	if err := call(a, "b:1"); !errors.Is(err, wire.ErrNotRun) || !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned: %v", err)
	}
	n.SetPartitioned("a:1", "b:1", false)
	n.Fence("b:1", true)
	if err := call(a, "b:1"); !errors.Is(err, wire.ErrNotRun) || !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced: %v", err)
	}
	n.Fence("b:1", false)
	n.Endpoint("idle:1") // no handler
	if err := call(a, "idle:1"); !errors.Is(err, wire.ErrNotRun) {
		t.Fatalf("no handler: %v", err)
	}
	b.SetHandler(func(string, wire.Frame) *wire.Frame {
		n.SetPartitioned("a:1", "b:1", true)
		return &wire.Frame{Kind: wire.KindResponse}
	})
	if err := call(a, "b:1"); err == nil || errors.Is(err, wire.ErrNotRun) {
		t.Fatalf("reply lost after the handler ran: %v", err)
	}
	n.SetPartitioned("a:1", "b:1", false)
	b.SetHandler(func(string, wire.Frame) *wire.Frame { return nil })
	if err := call(a, "b:1"); err == nil || errors.Is(err, wire.ErrNotRun) {
		t.Fatalf("handler returned no reply: %v", err)
	}
	b.Close()
	if err := call(a, "b:1"); !errors.Is(err, wire.ErrNotRun) {
		t.Fatalf("closed destination: %v", err)
	}
	a.Close()
	if err := call(a, "b:1"); !errors.Is(err, wire.ErrNotRun) || !errors.Is(err, ErrClosed) {
		t.Fatalf("closed caller: %v", err)
	}
}
