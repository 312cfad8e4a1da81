package rmi

import (
	"context"
	"errors"
	"testing"
	"time"

	"wls/internal/metrics"
	"wls/internal/trace"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// White-box tests of the execute path's release discipline and of the
// gate's line. A request's pooled Call goes back to the pool once, whether
// the gate admits the request or refuses it; a request leaves the line
// once, by whichever of Done, its budget's timer and Close reaches it
// first. The tests hold the *Call pointer and check it was zeroed
// (releaseCall's reset) when the contract says ownership went back.

// callIsReset reports whether releaseCall's zeroing ran on c.
func callIsReset(c *Call) bool {
	return c.Service == "" && c.Method == "" && c.From == "" && c.Args == nil
}

func newDispatchRegistry() *Registry {
	reg := metrics.NewRegistry()
	return &Registry{
		reg:      reg,
		requests: reg.Counter("rmi.requests"),
		busy:     reg.Counter("rmi.busy"),
		services: make(map[string]*Service),
	}
}

func newTestCall() *Call {
	call := callPool.Get().(*Call)
	call.Service = "S"
	call.Method = "m"
	call.Args = []byte("payload")
	return call
}

// countingMethod is a method whose handler counts its runs.
func countingMethod(runs *int) MethodSpec {
	return MethodSpec{name: "m", Handler: func(ctx context.Context, c *Call) ([]byte, error) {
		*runs++
		return []byte("ok"), nil
	}}
}

// statusOf reads the response status and error message of a frame.
func statusOf(t *testing.T, fr *wire.Frame) (byte, string) {
	t.Helper()
	if fr == nil {
		t.Fatal("no response frame")
	}
	resp, err := decodeResponse(fr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.status, resp.errMsg
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// settled reports whether g has nothing running and nothing in line.
func settled(g *Gate) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.running == 0 && len(g.line) == 0 && g.depth.Value() == 0
}

func TestRefusedAdmissionReleasesPooledCall(t *testing.T) {
	r := newDispatchRegistry()
	g := NewGate(QueueConfig{}, vclock.System, nil)
	g.Close()
	runs := 0
	call := newTestCall()
	fr := r.execute(context.Background(), g, 9, call, trace.SpanContext{}, countingMethod(&runs), Budget{})
	if st, msg := statusOf(t, fr); st != respBusy || msg != ErrQueueClosed.Error() {
		t.Fatalf("status %d %q, want BUSY %q", st, msg, ErrQueueClosed)
	}
	if got := r.busy.Value(); got != 1 {
		t.Fatalf("busy = %d, want 1", got)
	}
	if runs != 0 {
		t.Fatalf("refused request ran %d times", runs)
	}
	if !callIsReset(call) {
		t.Fatalf("refused Call not released: %+v", *call)
	}
}

func TestCallExpiredInLineNeverRuns(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	r := newDispatchRegistry()
	g := NewGate(QueueConfig{Workers: 1}, clk, nil)
	if err := g.Admit(Budget{}); err != nil {
		t.Fatal(err)
	}
	runs := 0
	call := newTestCall()
	out := make(chan *wire.Frame, 1)
	go func() {
		budget := Budget{clock: clk, deadline: clk.Now().Add(10 * time.Millisecond)}
		out <- r.execute(context.Background(), g, 7, call, trace.SpanContext{}, countingMethod(&runs), budget)
	}()
	waitUntil(t, "the request is in line", func() bool { return int(g.depth.Value()) == 1 })
	clk.Advance(10 * time.Millisecond)
	if st, msg := statusOf(t, <-out); st != respBusy || msg != "deadline expired in queue" {
		t.Fatalf("status %d %q, want BUSY \"deadline expired in queue\"", st, msg)
	}
	if runs != 0 {
		t.Fatalf("expired request ran %d times", runs)
	}
	if !callIsReset(call) {
		t.Fatalf("expired Call not released: %+v", *call)
	}
	g.Done()
	if !settled(g) {
		t.Fatal("gate not settled after the holder's Done")
	}
}

// TestSlotHandedAtExpiryRunsOnce covers the race between Done and a
// budget: the slot reaches the waiter while its timer is already firing.
// The waiter runs exactly once, the timer finds it gone, and the slot
// comes back with its Done.
func TestSlotHandedAtExpiryRunsOnce(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	r := newDispatchRegistry()
	g := NewGate(QueueConfig{Workers: 1}, clk, nil)
	if err := g.Admit(Budget{}); err != nil {
		t.Fatal(err)
	}
	runs := 0
	call := newTestCall()
	out := make(chan *wire.Frame, 1)
	go func() {
		budget := Budget{clock: clk, deadline: clk.Now().Add(time.Second)}
		out <- r.execute(context.Background(), g, 11, call, trace.SpanContext{}, countingMethod(&runs), budget)
	}()
	waitUntil(t, "the request is in line", func() bool { return int(g.depth.Value()) == 1 })

	// Fire the budget's timer while the gate is locked: its callback waits
	// on g.mu while the holder's Done hands the slot over.
	g.mu.Lock()
	advanced := make(chan struct{})
	go func() {
		clk.Advance(time.Second)
		close(advanced)
	}()
	waitUntil(t, "the timer fires", func() bool { return clk.PendingTimers() == 0 })
	g.running--
	g.next()
	g.mu.Unlock()
	<-advanced

	if st, _ := statusOf(t, <-out); st != respOK {
		t.Fatalf("status %d, want OK", st)
	}
	if runs != 1 {
		t.Fatalf("handler ran %d times, want 1", runs)
	}
	if got := r.busy.Value(); got != 0 {
		t.Fatalf("busy = %d, want 0", got)
	}
	if !callIsReset(call) {
		t.Fatalf("executed Call not released: %+v", *call)
	}
	if !settled(g) {
		t.Fatal("gate not settled: the slot did not come back")
	}
}

func TestLineIsFIFO(t *testing.T) {
	g := NewGate(QueueConfig{Workers: 1}, vclock.System, nil)
	defer g.Close()
	if err := g.Admit(Budget{}); err != nil {
		t.Fatal(err)
	}
	const n = 8
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			if err := g.Admit(Budget{}); err != nil {
				t.Error(err)
				return
			}
			order <- i
			g.Done()
		}(i)
		waitUntil(t, "the request is in line", func() bool { return int(g.depth.Value()) == i+1 })
	}
	g.Done()
	for want := 0; want < n; want++ {
		if got := <-order; got != want {
			t.Fatalf("admitted %d, want %d", got, want)
		}
	}
	waitUntil(t, "the gate settles", func() bool { return settled(g) })
}

func TestCloseRefusesEveryoneInLine(t *testing.T) {
	g := NewGate(QueueConfig{Workers: 1}, vclock.System, nil)
	if err := g.Admit(Budget{}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- g.Admit(Budget{}) }()
	}
	waitUntil(t, "the line is full", func() bool { return int(g.depth.Value()) == n })
	g.Close()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("waiter %d: want ErrQueueClosed, got %v", i, err)
		}
	}
	if err := g.Admit(Budget{}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("after Close: want ErrQueueClosed, got %v", err)
	}
	g.Done()
	if !settled(g) {
		t.Fatal("gate not settled after the holder's Done")
	}
}
