package rmi_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/trace"
	"wls/internal/wire"
)

// advancer drives the virtual clock from a background goroutine so the
// foreground test can block inside a budgeted call (latency delivery,
// backoff sleeps and budget timers all fire on the virtual clock).
func advancer(f *simtest.Fixture) (stop func()) {
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				f.VClock.Advance(5 * time.Millisecond)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	return func() { close(done) }
}

// deployBudgetReport registers a service whose handler reports the budget
// it observed: a bool (budget present) and the remaining nanos.
func deployBudgetReport(name string, servers ...*simtest.Server) {
	for _, s := range servers {
		s.Registry.Register(&rmi.Service{
			Name: name,
			Methods: map[string]rmi.MethodSpec{
				"report": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					e := wire.NewEncoder(16)
					b, ok := rmi.BudgetFrom(ctx)
					e.Bool(ok)
					if ok {
						e.Uint64(uint64(b.Remaining()))
					} else {
						e.Uint64(0)
					}
					return e.Bytes(), nil
				}},
			},
		})
	}
}

func decodeReport(t *testing.T, body []byte) (bool, time.Duration) {
	t.Helper()
	d := wire.NewDecoder(body)
	ok := d.Bool()
	rem := time.Duration(d.Uint64())
	if err := d.Err(); err != nil {
		t.Fatalf("bad report body: %v", err)
	}
	return ok, rem
}

// TestBudgetPropagatesAndShrinksAcrossHops: the client grants 2s; the
// middle server burns 50ms of work before making a nested hop with the
// caller context. Both servers must observe a budget, and the deeper
// server must observe one smaller by at least the work it waited behind —
// the shrinking-budget contract that makes nested hops deadline-aware.
func TestBudgetPropagatesAndShrinksAcrossHops(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployBudgetReport("Budget3", f.Servers[2])
	// Server-2's handler works for 50ms, then makes the nested hop with
	// the caller context, so the shrunken budget rides along automatically.
	const work = 50 * time.Millisecond
	clk := f.Clock
	nested := f.Servers[1].Stub("Budget3")
	f.Servers[1].Registry.Register(&rmi.Service{
		Name: "Budget2",
		Methods: map[string]rmi.MethodSpec{
			"report": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				b, ok := rmi.BudgetFrom(ctx)
				if !ok {
					return nil, errors.New("no budget at server-2")
				}
				mine := b.Remaining()
				clk.Sleep(work)
				res, err := nested.Invoke(ctx, "report", nil)
				if err != nil {
					return nil, err
				}
				e := wire.NewEncoder(24)
				e.Uint64(uint64(mine))
				e.Bytes2(res.Body)
				return e.Bytes(), nil
			}},
		},
	})
	f.Settle(2)
	f.Net.SetLatency(f.Servers[1].Endpoint.Addr(), f.Servers[2].Endpoint.Addr(), 10*time.Millisecond)
	stop := advancer(f)
	defer stop()

	const grant = 2 * time.Second
	ctx := rmi.WithBudget(context.Background(), f.Clock, grant)
	res, err := f.Servers[0].Stub("Budget2").Invoke(ctx, "report", nil)
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(res.Body)
	rem2 := time.Duration(d.Uint64())
	ok3, rem3 := decodeReport(t, d.Bytes())
	if !ok3 {
		t.Fatal("server-3 saw no budget")
	}
	if rem2 > grant || rem2 <= grant/2 {
		t.Fatalf("server-2 remaining %v, want in (1s, 2s]", rem2)
	}
	// rem3 was measured after server-2's 50ms of work (and a 10ms hop), so
	// it must trail rem2 by at least the work — allow scheduling slack.
	if rem3 > rem2-work+10*time.Millisecond {
		t.Fatalf("budget did not shrink across the nested hop: server-2 %v, server-3 %v", rem2, rem3)
	}
	if rem3 <= 0 {
		t.Fatalf("server-3 remaining %v, want > 0", rem3)
	}
}

// TestUnbudgetedCallHasNoBudget pins mixed-version compatibility in the
// old-caller direction: a request with no deadline block must decode and
// execute exactly as before, with no budget in the handler context.
func TestUnbudgetedCallHasNoBudget(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployBudgetReport("Budget", f.Servers...)
	f.Settle(2)
	res, err := f.Servers[0].Stub("Budget").Invoke(context.Background(), "report", nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, rem := decodeReport(t, res.Body)
	if ok || rem != 0 {
		t.Fatalf("unbudgeted call saw budget (ok=%v rem=%v)", ok, rem)
	}
}

// TestBudgetExpiredBeforeDial: a zero budget fails fast with
// ErrBudgetExceeded — no attempt is issued at all.
func TestBudgetExpiredBeforeDial(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	ctx := rmi.WithBudget(context.Background(), f.Clock, 0)
	_, err := f.Servers[0].Stub("Echo").Invoke(ctx, "echo", nil)
	if !errors.Is(err, rmi.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestLateResponseDiscarded: with 100ms of one-way latency and a 150ms
// budget, the response arrives after the deadline. The client-side gate
// must discard it — the caller sees budget exhaustion (or the server's own
// expired-on-arrival refusal if the request itself arrived late), never a
// late success.
func TestLateResponseDiscarded(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployEcho(f.Servers[1])
	f.Settle(2)
	f.Net.SetLatency(f.Servers[0].Endpoint.Addr(), f.Servers[1].Endpoint.Addr(), 100*time.Millisecond)
	stop := advancer(f)
	defer stop()

	ctx := rmi.WithBudget(context.Background(), f.Clock, 150*time.Millisecond)
	res, err := f.Servers[0].Stub("Echo").Invoke(ctx, "echo", []byte("late"))
	if err == nil {
		t.Fatalf("late response was delivered: %+v", res)
	}
	if !errors.Is(err, rmi.ErrBudgetExceeded) && !errors.As(err, new(*rmi.BusyError)) {
		t.Fatalf("want budget exhaustion or BUSY, got %v", err)
	}
}

// spell appends a name the built-in table does not hold, spelled out: a
// uvarint of its length shifted left with the low bit set, then its bytes.
func spell(e *wire.Encoder, name string) {
	e.Uint64(uint64(len(name))<<1 | 1)
	e.Raw(name)
}

// rawRequest builds a well-formed request body for Echo.echo, ready for a
// deadline block / trace envelope tail.
func rawRequest() *wire.Encoder {
	e := wire.NewEncoder(64)
	spell(e, "Echo")
	spell(e, "echo")
	e.Bytes2([]byte("hi"))
	return e
}

// rawCall drives a hand-built frame at a live server and returns the
// response status byte and, for a failure, its error message (a reply names
// no server).
func rawCall(t *testing.T, f *simtest.Fixture, body []byte) (status byte, msg string) {
	t.Helper()
	client := f.Net.Endpoint("10.9.9.9:1")
	resp, err := client.Call(context.Background(), f.Servers[0].Endpoint.Addr(),
		wire.Frame{Kind: wire.KindRequest, Body: body})
	if err != nil {
		t.Fatalf("raw call: %v", err)
	}
	d := wire.NewDecoder(resp.Body)
	if status = d.Byte(); status != 0 {
		msg = d.String()
	}
	return status, msg
}

// TestExpiredOnArrivalRefusedAsBusy pins the wire contract: a request
// whose deadline block says 0ns remaining is refused with the BUSY status
// (4) before any application code runs.
func TestExpiredOnArrivalRefusedAsBusy(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	e := rawRequest()
	e.Byte(0xD9) // deadline magic
	e.Byte(0x01) // version 1
	e.Uint64(0)  // 0ns remaining: expired on arrival
	status, msg := rawCall(t, f, e.Bytes())
	if status != 4 {
		t.Fatalf("status = %d, want 4 (busy); msg=%q", status, msg)
	}
}

// TestBadDeadlineVersionRejected pins the forward-compat contract in the
// new-caller direction: an unknown deadline version is a malformed request
// (system error response), never a panic and never silent acceptance.
func TestBadDeadlineVersionRejected(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	e := rawRequest()
	e.Byte(0xD9)
	e.Byte(0x7F) // unknown version
	e.Uint64(uint64(time.Second))
	status, _ := rawCall(t, f, e.Bytes())
	if status == 0 {
		t.Fatalf("unknown deadline version accepted as OK")
	}
	if status == 4 {
		t.Fatalf("unknown deadline version misread as admission refusal")
	}
}

// TestBudgetWithTraceEnvelope: the deadline block and the trace envelope
// share the request tail (deadline first); both must survive a round trip
// together.
func TestBudgetWithTraceEnvelope(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployBudgetReport("Budget", f.Servers...)
	f.Settle(2)
	ring, ctr := traceUp(f, f.Servers...)

	ctx, root := ctr.StartRoot(context.Background(), "req", trace.KindInternal)
	ctx = rmi.WithBudget(ctx, f.Clock, time.Second)
	res, err := f.Servers[0].Stub("Budget").Invoke(ctx, "report", nil)
	if err != nil {
		t.Fatal(err)
	}
	root.Finish()
	ok, rem := decodeReport(t, res.Body)
	if !ok || rem <= 0 {
		t.Fatalf("budget lost when traced: ok=%v rem=%v", ok, rem)
	}
	var served bool
	for _, d := range ring.Snapshot() {
		if d.Name == "rmi.serve Budget.report" {
			served = true
		}
	}
	if !served {
		t.Fatal("trace envelope lost when budgeted")
	}
}
