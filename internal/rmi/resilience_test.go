package rmi_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/simtest"
)

// Black-box coverage of the stub's resilience integration: cancellation
// between failover attempts, the shared retry budget, breaker-driven
// recovery, and BUSY-triggered failover.

// TestInvokeAbandonedWhenCtxCancelled is the regression test for the stub
// ignoring ctx between failover attempts: a cancelled caller must stop
// before dialing anything, and no handler may run on its behalf.
func TestInvokeAbandonedWhenCtxCancelled(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	var served atomic.Int64
	for _, s := range f.Servers {
		s.Registry.Register(&rmi.Service{
			Name: "Count",
			Methods: map[string]rmi.MethodSpec{
				"hit": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					served.Add(1)
					return nil, nil
				}},
			},
		})
	}
	f.Settle(2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.Servers[0].Stub("Count").Invoke(ctx, "hit", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := served.Load(); n != 0 {
		t.Fatalf("cancelled invoke still ran %d handlers", n)
	}
}

// TestRetryBudgetExhausted: with every target unreachable, the token
// bucket drains and further failover attempts are refused — the caller
// gets a terminal error instead of amplifying the outage with retries.
func TestRetryBudgetExhausted(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	addr2 := f.Servers[1].Endpoint.Addr()
	addr3 := f.Servers[2].Endpoint.Addr()
	f.Crash(f.Servers[1].Name)
	f.Crash(f.Servers[2].Name)
	stop := advancer(f)
	defer stop()

	reg := metrics.NewRegistry()
	res := rmi.NewResilience(rmi.ResilienceConfig{RetryBudget: 1, RetryRatio: 0.0001}, f.Clock, reg)
	stub := rmi.NewStub("Echo", f.Servers[0].Endpoint,
		rmi.StaticView(addr2, addr3), rmi.WithResilience(res))

	// First invoke spends the only banked token failing over addr2 → addr3.
	_, err := stub.Invoke(context.Background(), "echo", nil)
	if err == nil {
		t.Fatal("invoke against crashed servers succeeded")
	}
	if got := reg.Counter("rmi.retries").Value(); got != 1 {
		t.Fatalf("rmi.retries = %d, want 1", got)
	}
	// Second invoke fails its first attempt and is refused the retry.
	_, err = stub.Invoke(context.Background(), "echo", nil)
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("want retry-budget exhaustion, got %v", err)
	}
	if got := reg.Counter("rmi.retry.denied").Value(); got != 1 {
		t.Fatalf("rmi.retry.denied = %d, want 1", got)
	}
}

// TestBreakerOpensAndRecloses drives one server's breaker through the full
// cycle against a live cluster: repeated transport failures open it, and
// after the server restarts a cooled-down probe re-closes it.
func TestBreakerOpensAndRecloses(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	target := f.Servers[1]
	name, addr := target.Name, target.Endpoint.Addr()

	cfg := rmi.ResilienceConfig{BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond}
	res := rmi.NewResilience(cfg, f.Clock, nil)
	stub := rmi.NewStub("Echo", f.Servers[0].Endpoint,
		rmi.NamedStaticView(name, addr), rmi.WithResilience(res))

	f.Crash(name)
	for i := 0; i < cfg.BreakerThreshold; i++ {
		if _, err := stub.Invoke(context.Background(), "echo", nil); err == nil {
			t.Fatalf("invoke %d against crashed %s succeeded", i, name)
		}
	}
	if st := res.State(name); st != rmi.BreakerOpen {
		t.Fatalf("breaker after %d failures = %v, want open", cfg.BreakerThreshold, st)
	}

	deployEcho(f.Restart(name))
	f.VClock.Advance(cfg.BreakerCooldown)
	res2, err := stub.Invoke(context.Background(), "echo", []byte("probe"))
	if err != nil {
		t.Fatalf("probe after restart failed: %v", err)
	}
	if res2.ServedBy != name {
		t.Fatalf("probe served by %s, want %s", res2.ServedBy, name)
	}
	if st := res.State(name); st != rmi.BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", st)
	}
}

// TestBusyFailoverToNextServer: a BUSY refusal is side-effect-free by
// contract, so the stub fails over even for non-idempotent methods — and
// the refused request never touches application code.
func TestBusyFailoverToNextServer(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	full := f.Servers[0]
	next := f.Servers[1]

	// Server-1's execute queue is closed: it refuses every request.
	full.Registry.SetGate(closedGate())

	stop := advancer(f)
	defer stop()
	res := rmi.NewResilience(rmi.ResilienceConfig{}, f.Clock, nil)
	stub := f.Servers[2].Stub("Echo",
		rmi.WithPolicy(orderPolicy{names: []string{full.Name, next.Name}}),
		rmi.WithResilience(res))
	got, err := stub.Invoke(context.Background(), "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("invoke with one busy server failed: %v", err)
	}
	if got.ServedBy != next.Name {
		t.Fatalf("served by %s, want failover to %s", got.ServedBy, next.Name)
	}
	if v := full.Metrics.Counter("rmi.busy").Value(); v == 0 {
		t.Fatal("busy refusal not counted on the refusing server")
	}
}
