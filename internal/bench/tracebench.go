package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"wls"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/trace"
)

func init() {
	register(Experiment{ID: "E29", Title: "Distributed tracing: per-hop breakdown and sampling overhead",
		Source: "Fig 1 + §2.1: requests cross servers; tracing accounts for every hop without taxing the unsampled path", Run: runE29})
}

// runE29 has two halves. First, a fully-sampled servlet request through the
// Fig 2 proxy plug-in, broken down by span name: routing, the RMI hop into
// the engine, the servlet, and the synchronous session-replication hop to
// the secondary. Second, the cost of the tracing hooks on an echo RPC at
// three sampling settings — disabled (no tracers at all), 1%, and 100% —
// reported as throughput and process-wide allocations per call.
func runE29() *Table {
	t := &Table{ID: "E29", Title: "Tracing: per-hop breakdown and sampling overhead",
		Source:  "Fig 1 + §2.1",
		Columns: []string{"section", "name", "n", "mean_latency", "calls/s", "allocs/call", "vs_disabled"},
		Notes: "hop rows: one traced /count request path, mean span duration per hop (the replication " +
			"write rides inside the engine hop). sampling rows: tracing disabled must cost nothing; " +
			"1% head-based sampling must stay within noise of disabled; 100% pays only in sampled requests."}

	e29HopBreakdown(t)
	e29SamplingOverhead(t)
	return t
}

// e29HopBreakdown drives traced requests end to end and aggregates span
// durations by name.
func e29HopBreakdown(t *Table) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true, TraceSample: 1, TraceBuffer: 1 << 14})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		s.Web.Handle("/count", func(r *servlet.Request) servlet.Response {
			r.Session.Set("n", "1")
			return servlet.Response{Body: []byte("ok")}
		})
	}
	c.Settle(2)
	proxy := c.ProxyPlugin("webserver:80")

	const reqs = 100
	cookie := ""
	for i := 0; i < reqs; i++ {
		resp, err := proxy.Route(context.Background(), "/count", cookie, nil)
		if err != nil {
			panic(err)
		}
		cookie = resp.Cookie
	}

	type agg struct {
		n   int
		sum time.Duration
	}
	byName := map[string]*agg{}
	spans := c.Traces().Snapshot()
	for _, d := range spans {
		a := byName[d.Name]
		if a == nil {
			a = &agg{}
			byName[d.Name] = a
		}
		a.n++
		a.sum += d.Duration()
	}
	// Trace-derived invariant: every request crossed the engine exactly
	// once and the replication write exactly once (after the session
	// exists, i.e. on every request — the first creates and replicates
	// too since the servlet always dirties the session).
	ids := trace.TraceIDs(spans)
	if len(ids) != reqs {
		panic(fmt.Sprintf("E29: %d traces for %d requests", len(ids), reqs))
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		t.AddRow("hop", n, a.n,
			time.Duration(int64(a.sum)/int64(a.n)).Round(time.Microsecond),
			"-", "-", "-")
	}
}

// e29SamplingOverhead measures an internal-client echo RPC at three
// sampling settings.
func e29SamplingOverhead(t *Table) {
	run := func(sample float64) (callsPerSec, allocsPer float64) {
		c, err := wls.New(wls.Options{Servers: 3, RealClock: true, TraceSample: sample, TraceBuffer: 1 << 12})
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
	t.AddRow("sampling", "disabled", 6000, "-", fmt.Sprintf("%.0f", baseRate), fmt.Sprintf("%.1f", baseAllocs), "1.00")
	for _, s := range []struct {
		label  string
		sample float64
	}{{"1%", 0.01}, {"100%", 1}} {
		rate, allocs := run(s.sample)
		t.AddRow("sampling", s.label, 6000, "-",
			fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.1f", allocs), ratio(rate, baseRate))
	}
}
