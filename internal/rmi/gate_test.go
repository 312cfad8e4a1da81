//go:build !race

package rmi_test

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"context"
	"testing"

	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/trace"
)

// TestGateTracingDisabledEchoAllocs pins the allocation budget of the echo
// path with tracing disabled. The value is the pre-tracing rmi budget
// (Call/Result/response envelopes; the wire/transport layer underneath is
// 0-alloc per PR 2) — the tracing hooks on the path (context probe,
// envelope skip, headerless parse) must not add a single allocation.
func TestGateTracingDisabledEchoAllocs(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	ctx := context.Background()
	args := []byte("hi")
	if n := testing.AllocsPerRun(500, func() {
		if _, err := stub.Invoke(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
	}); n > 23 {
		t.Fatalf("tracing-disabled echo path allocates %v/op, budget 23", n)
	}
}

// TestGateUnsampledEchoAllocs pins the other half of the fast path: tracers
// installed everywhere, but the root unsampled — the per-request tracing
// cost must stay zero even with tracing wired (and no span is exported:
// TestUnsampledRootExportsNothing).
func TestGateUnsampledEchoAllocs(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	ring, _ := traceUp(f, f.Servers...)
	never := trace.New("client", f.Clock, trace.Options{Sampler: trace.Never(), Exporter: ring})
	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	args := []byte("hi")
	if n := testing.AllocsPerRun(500, func() {
		ctx, span := never.StartRoot(context.Background(), "req", trace.KindInternal)
		if _, err := stub.Invoke(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
		span.Finish()
	}); n > 23 {
		t.Fatalf("unsampled echo path allocates %v/op, budget 23", n)
	}
}
