package bench

import (
	"context"
	"fmt"
	"runtime"

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
		Notes: "tracing disabled must cost nothing; 1% head-based sampling must stay within noise of disabled; " +
			"100% pays only in sampled requests."}
	run := func(sample float64) (callsPerSec, allocsPer float64) {
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
		tr := c.Servers[0].Tracer() // nil when sample == 0
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

		const calls = 6000
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

	baseRate, baseAllocs := run(0)
	t.AddRow("disabled", 6000, fmt.Sprintf("%.0f", baseRate), fmt.Sprintf("%.1f", baseAllocs), "1.00")
	for _, s := range []struct {
		label  string
		sample float64
	}{{"1%", 0.01}, {"100%", 1}} {
		rate, allocs := run(s.sample)
		t.AddRow(s.label, 6000, fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.1f", allocs), ratio(rate, baseRate))
	}
	return t
}
