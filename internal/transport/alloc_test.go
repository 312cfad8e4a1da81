//go:build !race

package transport

// Allocation counts of the call path. The race runtime drops sync.Pool
// items at random, so they are measured without it.

import (
	"context"
	"testing"

	"wls/internal/wire"
)

// TestCallAllocatesNothing pins a warm Call with a 16 B reply at 0
// allocations, under context.Background and under a WithCancel context
// whose Done was never called (a fresh one each call, made beforehand, as
// net/http makes one per request). The reply is carved from the
// transport's slab, one 2 KiB array per 128 such replies, which
// testing.AllocsPerRun's whole count reads as 0; and a reply that comes
// within patience never makes the context allocate its Done channel. The
// handler returns a frame it already has, so it allocates nothing either.
func TestCallAllocatesNothing(t *testing.T) {
	const runs = 1000
	a, b := newT(t), newT(t)
	reply := &wire.Frame{Body: make([]byte, 16)}
	b.SetHandler(func(string, wire.Frame) *wire.Frame { return reply })
	req := wire.Frame{Body: make([]byte, 16)}
	call := func(ctx context.Context) {
		resp, err := a.Call(ctx, b.Addr(), req)
		if err != nil || len(resp.Body) != 16 {
			t.Fatalf("call: %d B, %v", len(resp.Body), err)
		}
	}
	for i := 0; i < 64; i++ {
		call(context.Background())
	}
	if n := testing.AllocsPerRun(runs, func() { call(context.Background()) }); n != 0 {
		t.Errorf("a call under context.Background allocates %v, want 0", n)
	}
	ctxs := make([]context.Context, runs+1) // AllocsPerRun's warm-up call takes one more
	for i := range ctxs {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctxs[i] = ctx
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() { call(ctxs[i]); i++ }); n != 0 {
		t.Errorf("a call under a fresh WithCancel context allocates %v, want 0", n)
	}
}
