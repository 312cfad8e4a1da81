//go:build !race

package transport

// Heap figures of idle connections. The race runtime keeps shadow memory of
// its own, so these are measured without it.

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

// TestIdleConnFootprint pins what an idle connection end holds. One
// transport dials 32 peers and makes one call to each; the live heap that
// added, net of the 33 transports built beforehand, is divided by the 64
// connection ends. That is the 4 KiB socket buffer, the conn with its call
// slots, the writer, the TCP conn and the tracking maps, and a 64th of the
// hub's 2 KiB reply slab; no body buffer, no batch buffer (DESIGN.md "What
// a connection end holds" has the breakdown). Measured 5 156–5 255 B,
// pinned at gateIdleConnEnd. A burst of 64
// concurrent 200 KiB echoes over one of the connections must leave nothing
// behind: the same gate holds after it.
func TestIdleConnFootprint(t *testing.T) {
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
