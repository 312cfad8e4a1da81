package benchtest

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"wls"
	"wls/internal/rmi"
	"wls/internal/trace"
)

func init() {
	register(Experiment{ID: "E29", Title: "Distributed tracing: sampling overhead",
		Source: "Fig 1 + §2.1: requests cross servers; tracing accounts for every hop without taxing the unsampled path", Run: runE29})
}

// runE29 measures the cost of the tracing hooks on an internal-client echo
// RPC at three sampling settings — disabled (no tracers at all), 1%, and
// 100% — reported as throughput and process-wide allocations per call.
func runE29() *Table {
	t := &Table{ID: "E29", Title: "Tracing: sampling overhead",
		Source:  "Fig 1 + §2.1",
		Columns: []string{"sampling", "calls", "calls/s", "allocs/call", "vs_disabled"},
		Notes: "1% head-based sampling adds at most half an allocation per call over disabled, and 100% " +
			"at least 3x disabled's allocations (TestGateE29SamplingCost holds both). calls/s is one run's " +
			"wall-clock rate, and vs_disabled has read 0.74–1.12 across runs, so the throughput columns claim nothing."}
	const calls = 6000
	baseRate, baseAllocs := e29Run(0, calls)
	t.AddRow("disabled", calls, fmt.Sprintf("%.0f", baseRate), fmt.Sprintf("%.1f", baseAllocs), "1.00")
	for _, s := range []struct {
		label  string
		sample float64
	}{{"1%", 0.01}, {"100%", 1}} {
		rate, allocs := e29Run(s.sample, calls)
		t.AddRow(s.label, calls, fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.1f", allocs), ratio(rate, baseRate))
	}
	return t
}

// e29Run drives calls echo RPCs from server-1 through a round-robin stub,
// each under a root started at the given sampling rate (no tracing at all
// at 0), and reports the calls per second and process-wide allocations
// per call.
func e29Run(sample float64, calls int) (callsPerSec, allocsPer float64) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true, TraceSample: sample})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		s.Registry().Register(&rmi.Service{
			Name: "Echo",
			Methods: map[string]rmi.MethodSpec{
				"echo": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
					return call.Args, nil
				}},
			},
		})
	}
	c.Settle(2)
	stub := c.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	var tr *trace.Tracer // nil when sample == 0
	if sample > 0 {
		tr = trace.New("bench", wall, trace.Options{Sampler: trace.Ratio(sample), Exporter: c.Traces()})
	}
	body := make([]byte, 64)
	bg := context.Background()

	call := func() {
		ctx := bg
		var span *trace.Span
		if tr != nil {
			ctx, span = tr.StartRoot(bg, "bench.echo", trace.KindInternal)
		}
		if _, err := stub.Invoke(ctx, "echo", body); err != nil {
			panic(err)
		}
		span.Finish()
	}
	for i := 0; i < 64; i++ {
		call() // warm pools and connections
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := wall.Now()
	for i := 0; i < calls; i++ {
		call()
	}
	elapsed := wall.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(calls) / elapsed.Seconds(),
		float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// serversTouched returns the sorted set of servers that executed
// server-side work for the given trace — the paper's "number of servers
// involved in processing a request" (§3.1), read directly off the trace
// instead of inferred from counters. Routing tiers and pure client spans
// do not count as touched servers.
func serversTouched(spans []trace.SpanData, id trace.TraceID) []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range spans {
		if d.Trace != id || d.Server == "" {
			continue
		}
		// trace.KindServer is a request handled on a server; KindSession is a
		// replication write applied on the secondary (it arrives as a
		// server span too, but count the origin side's intent as well).
		if d.Kind != trace.KindServer {
			continue
		}
		if !seen[d.Server] {
			seen[d.Server] = true
			out = append(out, d.Server)
		}
	}
	sort.Strings(out)
	return out
}

// hopCount returns the number of cross-server request handlings in the
// trace (server-kind spans): the trace-derived measure of how far a
// request spread.
func hopCount(spans []trace.SpanData, id trace.TraceID) int {
	n := 0
	for _, d := range spans {
		if d.Trace == id && d.Kind == trace.KindServer {
			n++
		}
	}
	return n
}
