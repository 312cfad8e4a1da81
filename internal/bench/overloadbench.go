package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wls"
	"wls/internal/metrics"
	"wls/internal/rmi"
)

func init() {
	register(Experiment{ID: "E30", Title: "End-to-end overload protection under a flash burst with a slow server",
		Source: "§2.3 + §2.1: execute-queue admission plus client-side failover must keep the cluster responsive when demand spikes", Run: runE30})
}

const (
	e30Service = "bench.echo"
	// e30Work is the simulated execute-thread time per request.
	e30Work = 5 * time.Millisecond
	// e30Budget is the per-request end-to-end budget in the resilient
	// configuration.
	e30Budget = 250 * time.Millisecond
	// e30Slow is the one-way latency inflation of the slow server.
	e30Slow = 150 * time.Millisecond
	// e30Tick is the virtual-time spacing between request volleys.
	e30Tick = 10 * time.Millisecond
)

// e30Config is one experiment arm.
type e30Config struct {
	name      string
	resilient bool // Deny queue + budgets + retry budget + breakers
	burst     bool // flash crowd between ticks 100 and 140
	slow      bool // one server answers e30Slow late each way
}

// runE30 compares a statically provisioned cluster (queues too long to
// fill, no budgets, no breakers) against the full protection stack
// (small Deny queues, request budgets, shared retry budget, per-server
// breakers) under the same insult: a 4x flash burst while one of three
// servers answers 150ms late. The reproduction target is the shape: the
// static arm completes everything but its p99 blows up by queueing delay
// plus the slow server's latency, while the resilient arm sheds the excess
// (BUSY/expired) and keeps the p99 of what it serves within a small
// multiple of the unloaded baseline.
func runE30() *Table {
	t := &Table{ID: "E30", Title: "Overload protection: flash burst + slow server",
		Source:  "§2.3 + §2.1",
		Columns: []string{"config", "offered", "ok", "busy", "expired", "failed", "p50_ok", "p99_ok", "slow_breaker"},
		Notes: "baseline: unloaded static stack. static: everything completes, p99 inflated by queue sojourn and the " +
			"slow server. resilient: excess demand is refused at admission (busy) or times out against the slow server " +
			"(expired) until its breaker opens; served-request p99 stays within a small multiple of baseline."}
	for _, c := range []e30Config{
		{name: "baseline", resilient: false, burst: false, slow: false},
		{name: "static", resilient: false, burst: true, slow: true},
		{name: "resilient", resilient: true, burst: true, slow: true},
	} {
		t.Rows = append(t.Rows, e30Run(c))
	}
	return t
}

func e30Run(cfg e30Config) []string {
	opts := wls.Options{Servers: 3, WithAdmin: true, Seed: 1}
	if cfg.resilient {
		opts.Admission = &rmi.QueueConfig{Workers: 2, QueueLen: 8}
		opts.Resilience = &rmi.ResilienceConfig{}
	} else {
		// Statically provisioned: same limit, but demand queues up
		// instead of being refused — the arm offers 1 320 requests, so
		// its line never fills — and the client never gives up.
		opts.Admission = &rmi.QueueConfig{Workers: 2, QueueLen: 4096}
	}
	c, err := wls.New(opts)
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	clk := c.Clock()
	for _, s := range c.Servers {
		s.Registry().Register(&rmi.Service{
			Name: e30Service,
			Methods: map[string]rmi.MethodSpec{
				"echo": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
					clk.Sleep(e30Work)
					return call.Args, nil
				}},
			},
		})
	}
	c.Settle(2)
	slowName := c.Servers[len(c.Servers)-1].Name
	if cfg.slow {
		c.Net().SetSlow(c.Servers[len(c.Servers)-1].Addr(), e30Slow)
	}

	// The caller is the never-faulted admin server, so one Resilience
	// instance observes the whole run (the cluster wires it into the stub).
	stub := c.Admin.Stub(e30Service, rmi.WithPolicy(rmi.NewRoundRobin()))

	var (
		mu                        sync.Mutex
		hist                      metrics.Histogram
		inflight                  int
		offered                   int
		ok, busy, expired, failed int
	)
	launch := func() {
		ctx := context.Background()
		if cfg.resilient {
			ctx = rmi.WithBudget(ctx, clk, e30Budget)
		}
		start := clk.Now()
		mu.Lock()
		offered++
		inflight++
		mu.Unlock()
		go func() {
			_, err := stub.Invoke(ctx, "echo", nil)
			d := clk.Now().Sub(start)
			mu.Lock()
			defer mu.Unlock()
			inflight--
			switch {
			case err == nil:
				ok++
				hist.RecordDuration(d)
			case errors.Is(err, rmi.ErrBudgetExceeded):
				expired++
			case rmi.IsBusy(err):
				busy++
			default:
				failed++
			}
		}()
	}

	// 3s of virtual time: steady 200 req/s, with a 0.4s burst at 2000 req/s
	// (≈4x the 3-server × 2-at-once × 5ms service capacity) in the middle.
	for tick := 0; tick < 300; tick++ {
		n := 2
		if cfg.burst && tick >= 100 && tick < 140 {
			n = 20
		}
		for i := 0; i < n; i++ {
			launch()
		}
		// Brief real-time pause so freshly launched goroutines register
		// their virtual-clock waits before the next advance.
		wall.Sleep(100 * time.Microsecond)
		c.Advance(e30Tick)
	}
	for drain := 0; drain < 3000; drain++ {
		mu.Lock()
		left := inflight
		mu.Unlock()
		if left == 0 {
			break
		}
		wall.Sleep(100 * time.Microsecond)
		c.Advance(e30Tick)
	}

	breaker := "-"
	if res := c.Admin.Resilience(); res != nil {
		breaker = res.State(slowName).String()
	}
	mu.Lock()
	defer mu.Unlock()
	if inflight != 0 {
		panic(fmt.Sprintf("E30 %s: %d requests never finished", cfg.name, inflight))
	}
	return []string{cfg.name, fmt.Sprint(offered), fmt.Sprint(ok), fmt.Sprint(busy),
		fmt.Sprint(expired), fmt.Sprint(failed),
		time.Duration(hist.P50()).Round(100 * time.Microsecond).String(),
		time.Duration(hist.P99()).Round(100 * time.Microsecond).String(),
		breaker}
}
