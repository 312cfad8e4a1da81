package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wls"
	"wls/internal/metrics"
	"wls/internal/servlet"
)

func init() {
	register(Experiment{ID: "E31", Title: "Zero-alloc request path: allocations per request through the pooled tiers",
		Source: "Fig 2 + §2.1: the proxy plug-in, RMI hop, servlet engine, and session replication must not pay per-request garbage once requests, encoders, and sessions are pooled", Run: runE31})
}

// e31Seed holds the allocations/request of the same four paths measured on
// the tree immediately before the pooling work (requests, responses,
// sessions, and encoders allocated per request; routing built a candidate
// slice per call). They are recorded, not re-measured: the "before"
// configuration no longer exists in this tree.
var e31Seed = []struct {
	path   string
	allocs float64
}{
	{"webtier echo", 62},
	{"webtier session write", 91},
	{"servlet direct echo", 13},
	{"servlet direct session write", 42},
}

// runE31 reports the end-to-end allocation cost of the request path with
// tracing disabled. Section "seed" is the recorded pre-pooling baseline;
// section "now" measures this tree on the same four paths; section "load"
// drives the full webtier echo path at 1, 64, and 1024 concurrent callers
// and reports allocs/call, throughput, and p99 — the pooled path must hold
// its allocation count under contention, where sync.Pool and the
// per-connection flush batching earn their keep.
func runE31() *Table {
	t := &Table{ID: "E31", Title: "Zero-alloc request path: allocs/request before and after pooling",
		Source:  "Fig 2 + §2.1",
		Columns: []string{"section", "path", "callers", "calls", "allocs/call", "calls/s", "p99"},
		Notes: "seed rows: recorded before pooled requests/encoders/sessions and the no-alloc routing decision. " +
			"now rows: this tree, same paths (webtier = proxy plug-in + RMI hop + engine + replication on writes); " +
			"the wide row makes every call a different live session, where the hot rows repeat one cookie. " +
			"load rows: full webtier echo path under concurrency; allocs/call must stay flat as callers grow."}

	for _, s := range e31Seed {
		t.AddRow("seed", s.path, 1, "-", fmt.Sprintf("%.0f", s.allocs), "-", "-")
	}

	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		s.Web.Handle("/echo", func(r *servlet.Request) servlet.Response {
			return servlet.Response{Body: r.Body}
		})
		s.Web.Handle("/count", func(r *servlet.Request) servlet.Response {
			r.Session.Set("n", "1")
			return servlet.Response{Body: []byte("ok")}
		})
	}
	c.Settle(2)
	proxy := c.ProxyPlugin("webserver:80")
	eng := c.Servers[0].Web
	body := []byte("hello")
	ctx := context.Background()

	// Single-caller "now" rows, mirroring the seed measurements.
	proxyPath := func(path string) func(cookie string) string {
		return func(cookie string) string {
			resp, err := proxy.Route(ctx, path, cookie, body)
			if err != nil {
				panic(err)
			}
			return resp.Cookie
		}
	}
	enginePath := func(path string) func(cookie string) string {
		return func(cookie string) string {
			return eng.Serve(path, cookie, body).Cookie
		}
	}
	// The wide row takes turns over 8 192 live sessions, so every measured
	// call is the request of the session idle longest: whatever is keyed on
	// the cookie and smaller than that (the decode cache that was, 4 096
	// entries) misses every time.
	const calls = 2000
	for _, p := range []struct {
		name     string
		call     func(cookie string) string
		sessions int
	}{
		{"webtier echo", proxyPath("/echo"), 1},
		{"webtier session write", proxyPath("/count"), 1},
		{"servlet direct echo", enginePath("/echo"), 1},
		{"servlet direct session write", enginePath("/count"), 1},
		{"webtier session write, wide", proxyPath("/count"), 8192},
	} {
		cookies := make([]string, p.sessions)
		next := 0
		call := func() {
			cookies[next%p.sessions] = p.call(cookies[next%p.sessions])
			next++
		}
		for i := 0; i < 64 || i < p.sessions; i++ {
			call()
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := wall.Now()
		for i := 0; i < calls; i++ {
			call()
		}
		elapsed := wall.Since(start)
		runtime.ReadMemStats(&after)
		t.AddRow("now", p.name, 1, calls,
			fmt.Sprintf("%.1f", float64(after.Mallocs-before.Mallocs)/float64(calls)),
			fmt.Sprintf("%.0f", float64(calls)/elapsed.Seconds()), "-")
	}

	// Concurrency sweep on the echo path: each caller owns a session.
	for _, callers := range []int{1, 64, 1024} {
		perCaller := 4096 / callers
		if callers == 1 {
			perCaller = 2000
		}
		total := callers * perCaller

		cookies := make([]string, callers)
		var warm sync.WaitGroup
		for i := 0; i < callers; i++ {
			warm.Add(1)
			go func(i int) {
				defer warm.Done()
				for j := 0; j < 8; j++ {
					cookies[i] = proxyPath("/echo")(cookies[i])
				}
			}(i)
		}
		warm.Wait()

		hist := metrics.Histogram{}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := wall.Now()
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < perCaller; j++ {
					t0 := wall.Now()
					cookies[i] = proxyPath("/echo")(cookies[i])
					hist.RecordDuration(wall.Since(t0))
				}
			}(i)
		}
		wg.Wait()
		elapsed := wall.Since(start)
		runtime.ReadMemStats(&after)
		t.AddRow("load", "webtier echo", callers, total,
			fmt.Sprintf("%.1f", float64(after.Mallocs-before.Mallocs)/float64(total)),
			fmt.Sprintf("%.0f", float64(total)/elapsed.Seconds()),
			histP99(&hist))
	}
	return t
}

func histP99(h *metrics.Histogram) string {
	return fmtDuration(h.P99())
}

func fmtDuration(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
