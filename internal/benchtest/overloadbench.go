package benchtest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wls"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/vclock"
	"wls/internal/wire"
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
	burst     bool // flash crowd from a third of the run, for 2/15 of it
	slow      bool // one server answers e30Slow late each way
	ticks     int  // request volleys, e30Tick apart
}

// e30Result is one arm's outcome.
type e30Result struct {
	name                               string
	offered, ok, busy, expired, failed int
	p50, p99, max                      time.Duration // of served requests
	breaker                            string        // the slow server's
}

func (r e30Result) row() []string {
	return []string{r.name, fmt.Sprint(r.offered), fmt.Sprint(r.ok), fmt.Sprint(r.busy),
		fmt.Sprint(r.expired), fmt.Sprint(r.failed),
		r.p50.Round(100 * time.Microsecond).String(),
		r.p99.Round(100 * time.Microsecond).String(),
		r.breaker}
}

// e30Node stamps the clock when a call returns, into the invocation's
// stamp in the context: that is when the stub accepts or refuses the
// reply, while the invoking goroutine may read the clock a few ticks
// later. A failover's later attempt overwrites an earlier one's stamp.
type e30Node struct {
	rmi.Node
	clk vclock.Clock
}

type e30StampKey struct{}

func (n e30Node) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	reply, err := n.Node.Call(ctx, to, f)
	*ctx.Value(e30StampKey{}).(*time.Time) = n.clk.Now()
	return reply, err
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
		{name: "baseline", resilient: false, burst: false, slow: false, ticks: 300},
		{name: "static", resilient: false, burst: true, slow: true, ticks: 300},
		{name: "resilient", resilient: true, burst: true, slow: true, ticks: 300},
	} {
		t.Rows = append(t.Rows, e30Run(c).row())
	}
	return t
}

func e30Run(cfg e30Config) e30Result {
	opts := wls.Options{Servers: 3, WithAdmin: true, Seed: 1}
	if cfg.resilient {
		opts.Admission = &rmi.QueueConfig{Workers: 2, QueueLen: 8}
		opts.Resilience = true
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
	clk := c.Clock().(*vclock.Virtual)
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
	// instance observes the whole run.
	stubOpts := []rmi.StubOption{rmi.WithPolicy(rmi.NewRoundRobin())}
	if res := c.Admin.Resilience(); res != nil {
		stubOpts = append(stubOpts, rmi.WithResilience(res))
	}
	stub := rmi.NewStub(e30Service, e30Node{c.Admin.Node(), clk}, rmi.MemberView{Member: c.Admin.Member()}, stubOpts...)

	var (
		mu       sync.Mutex
		hist     metrics.Histogram
		inflight int
		r        = e30Result{name: cfg.name}
	)
	launch := func() {
		var replied time.Time
		ctx := context.WithValue(context.Background(), e30StampKey{}, &replied)
		if cfg.resilient {
			ctx = rmi.WithBudget(ctx, clk, e30Budget)
		}
		start := clk.Now()
		mu.Lock()
		r.offered++
		inflight++
		mu.Unlock()
		go func() {
			_, err := stub.Invoke(ctx, "echo", nil)
			mu.Lock()
			defer mu.Unlock()
			inflight--
			switch {
			case err == nil:
				r.ok++
				hist.Record(int64(replied.Sub(start)))
			case errors.Is(err, rmi.ErrBudgetExceeded):
				r.expired++
			case errors.As(err, new(*rmi.BusyError)):
				r.busy++
			default:
				r.failed++
			}
		}()
	}

	// At 300 ticks, 3s of virtual time: steady 200 req/s, with a 0.4s
	// burst at 2000 req/s (≈4x the 3-server × 2-at-once × 5ms service
	// capacity) in the middle.
	for tick := 0; tick < cfg.ticks; tick++ {
		n := 2
		if cfg.burst && tick >= cfg.ticks/3 && tick < cfg.ticks/3+cfg.ticks*2/15 {
			n = 20
		}
		for i := 0; i < n; i++ {
			launch()
		}
		// Brief real-time pause so freshly launched goroutines register
		// their virtual-clock waits before the next advance.
		wall.Sleep(100 * time.Microsecond)
		clk.Advance(e30Tick)
	}
	for drain := 0; drain < 3000; drain++ {
		mu.Lock()
		left := inflight
		mu.Unlock()
		if left == 0 {
			break
		}
		wall.Sleep(100 * time.Microsecond)
		clk.Advance(e30Tick)
	}

	r.breaker = "-"
	if res := c.Admin.Resilience(); res != nil {
		r.breaker = res.State(slowName).String()
	}
	mu.Lock()
	defer mu.Unlock()
	if inflight != 0 {
		panic(fmt.Sprintf("E30 %s: %d requests never finished", cfg.name, inflight))
	}
	r.p50, r.p99, r.max = time.Duration(hist.P50()), time.Duration(hist.P99()), time.Duration(hist.Max())
	return r
}
