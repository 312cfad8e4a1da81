//go:build !race

package transport

// Heap and allocation pins (`make gates`) of idle connections and the call
// path. The race runtime keeps shadow memory of its own and drops sync.Pool
// items at random, so these tests build only without it.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"wls/internal/wire"
)

// liveHeap is the live heap after two collections: the second drops what
// the first moved to the pools' victim caches.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// gateIdleConnEnd is the live heap of an idle connection end in bytes, at
// measured + 10 %.
const gateIdleConnEnd = 5750

// TestGateIdleConnFootprint pins what an idle connection end holds. One
// transport dials 32 peers and makes one call to each; the live heap that
// added, net of the 33 transports built beforehand, is divided by the 64
// connection ends. That is the 4 KiB socket buffer, the conn with its call
// slots, the writer, the TCP conn and the tracking maps, and a 64th of the
// hub's 2 KiB reply slab; no body buffer, no batch buffer (DESIGN.md "What
// a connection end holds" has the breakdown). Measured 5 156–5 255 B,
// pinned at gateIdleConnEnd. A burst of 64
// concurrent 200 KiB echoes over one of the connections must leave nothing
// behind: the same gate holds after it.
func TestGateIdleConnFootprint(t *testing.T) {
	const peers = 32
	const gate = float64(gateIdleConnEnd)
	hub := newT(t)
	ps := make([]*Transport, peers)
	for i := range ps {
		ps[i] = newT(t)
		ps[i].SetHandler(echoHandler)
	}
	perEnd := func(before uint64) float64 {
		waitWritersIdle(append(ps, hub)...)
		return float64(int64(liveHeap())-int64(before)) / (2 * peers)
	}
	// The runtime keeps the descriptor of a goroutine that ended, and of a
	// wait on a channel or lock, for the next one. Have as many goroutines
	// waiting at once as the connections and the burst will, first, so the
	// figure does not depend on what the process ran before.
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
	before := liveHeap()
	for _, p := range ps {
		if _, err := hub.Call(context.Background(), p.Addr(), wire.Frame{Body: []byte("hello")}); err != nil {
			t.Fatal(err)
		}
	}
	idle := perEnd(before)
	echoBurst(t, hub, ps[0])
	afterBurst := perEnd(before)
	runtime.KeepAlive(ps)
	t.Logf("an idle connection end holds %.0f B; %.0f B after a burst of 200 KiB echoes", idle, afterBurst)
	if idle > gate {
		t.Errorf("an idle connection end holds %.0f B, gate is %.0f", idle, gate)
	}
	if afterBurst > gate {
		t.Errorf("after a burst of 200 KiB echoes an idle connection end holds %.0f B, gate is %.0f", afterBurst, gate)
	}
}

// TestGateCallAllocatesNothing pins a warm Call with a 16 B reply at 0
// allocations, under context.Background and under a WithCancel context
// whose Done was never called (a fresh one each call, made beforehand, as
// net/http makes one per request). The reply is carved from the
// transport's slab, one 2 KiB array per 128 such replies, which
// testing.AllocsPerRun's whole count reads as 0; and a reply that comes
// within patience never makes the context allocate its Done channel. The
// handler returns a frame it already has, so it allocates nothing either.
func TestGateCallAllocatesNothing(t *testing.T) {
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
