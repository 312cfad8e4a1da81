package benchtest

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/netsim"
	"wls/internal/transport"
	"wls/internal/wire"
)

func init() {
	register(Experiment{ID: "E27", Title: "Transport hot path: batched writes, pooling, reused call slots",
		Source: "§2.1–2.2: session concentration requires a cheap multiplexed connection", Run: runE27})
}

// echoCaller is the slice of the Node interface the load generator needs;
// both netsim.Endpoint and transport.Transport satisfy it.
type echoCaller interface {
	Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error)
}

type echoResult struct {
	callsPerSec float64
	allocsPer   float64 // heap allocations per call, process-wide (client+server)
}

// echoLoad drives callers concurrent echo RPCs against to for roughly
// loadDur, reporting throughput and process-wide allocations per call.
func echoLoad(cl echoCaller, to string, callers int) echoResult {
	const loadDur = 250 * time.Millisecond
	ctx := context.Background()
	body := make([]byte, 128)

	// Warm connections and pools so the measurement is steady-state.
	for i := 0; i < 32; i++ {
		if _, err := cl.Call(ctx, to, wire.Frame{Body: body}); err != nil {
			panic(err)
		}
	}

	var stop atomic.Bool
	var ops atomic.Int64
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := wall.Now()
	timer := wall.AfterFunc(loadDur, func() { stop.Store(true) })
	defer timer.Stop()

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := cl.Call(ctx, to, wire.Frame{Body: body}); err != nil {
					panic(err)
				}
				ops.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := wall.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	n := ops.Load()
	res := echoResult{callsPerSec: float64(n) / elapsed.Seconds()}
	if n > 0 {
		res.allocsPer = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return res
}

// runE27: the paper's session-concentration story (§2.1–2.2) assumes a
// T3-style multiplexed connection is cheap enough that thousands of
// sessions fan in over a handful of sockets. Measure the wire/transport
// hot path: echo RPC over one multiplexed connection at 1/64/1024
// concurrent callers, on the in-proc fabric and on real TCP, with the
// mean number of frames each batched write carried.
func runE27() *Table {
	t := &Table{ID: "E27", Title: "Transport hot path: batched writes, pooling, reused call slots",
		Source:  "§2.1–2.2",
		Columns: []string{"fabric", "callers", "calls/s", "frames/s", "allocs/call", "mean_batch"},
		Notes: "at high concurrency the per-connection writer drains many queued frames per flush " +
			"(mean_batch ≫ 1); at 1 caller there is nothing to coalesce. allocs/call is process-wide " +
			"(client+server, both directions). frames/s = 2×calls/s (request + response)."}

	for _, callers := range []int{1, 64, 1024} {
		sim := netsim.New(wall)
		a := sim.Endpoint("a")
		b := sim.Endpoint("b")
		b.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{Kind: wire.KindResponse, Body: []byte("ok")} })
		res := echoLoad(a, "b", callers)
		addE27Row(t, "netsim", callers, res, "-")
	}

	for _, callers := range []int{1, 64, 1024} {
		srv, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		srv.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{Body: []byte("ok")} })
		cl, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		res := echoLoad(cl, srv.Addr(), callers)
		var frames, writes int64
		for _, tr := range []*transport.Transport{srv, cl} {
			h := tr.Metrics().Histogram("transport.batch.frames")
			frames, writes = frames+h.Sum(), writes+h.Count()
		}
		addE27Row(t, "tcp", callers, res, fmt.Sprintf("%.2f", float64(frames)/float64(max(writes, 1))))
		if err := cl.Close(); err != nil {
			panic(err)
		}
		if err := srv.Close(); err != nil {
			panic(err)
		}
	}
	return t
}

func addE27Row(t *Table, fabric string, callers int, res echoResult, batch string) {
	t.AddRow(fabric, callers,
		fmt.Sprintf("%.0f", res.callsPerSec),
		fmt.Sprintf("%.0f", 2*res.callsPerSec),
		fmt.Sprintf("%.1f", res.allocsPer),
		batch)
}
