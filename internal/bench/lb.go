package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wls"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/trace"
	"wls/internal/transport"
	"wls/internal/wire"
	"wls/internal/workload"
)

func init() {
	register(Experiment{ID: "E01", Title: "Request latency vs number of physical tiers",
		Source: "Fig 1 + §2.1: short requests should cross as few servers as possible", Run: runE01})
	register(Experiment{ID: "E02", Title: "Round robin vs random vs weighted load balancing",
		Source: "§2.1: simple schemes are \"particularly effective\"", Run: runE02})
	register(Experiment{ID: "E03", Title: "Data partitioning raises the concentration limit",
		Source: "§2.1: partitioning + data-dependent routing", Run: runE03})
	register(Experiment{ID: "E04", Title: "Local preference and transaction affinity limit spread",
		Source: "§3.1: prefer local instances; limit the spread of the transaction", Run: runE04})
	register(Experiment{ID: "E05", Title: "Failover retries only side-effect-free failures",
		Source: "§3.1: retry only when guaranteed no side effects / idempotent", Run: runE05})
	register(Experiment{ID: "E26", Title: "Session concentration in the presentation tier",
		Source: "§2.1: multiplex many client sockets onto few back-end connections", Run: runE26})
}

// runE01: a chain of tiers, each an RMI hop with simulated LAN latency; the
// measured request latency grows with every physical tier crossed.
func runE01() *Table {
	t := &Table{ID: "E01", Title: "Request latency vs physical tiers",
		Source:  "Fig 1 + §2.1",
		Columns: []string{"tiers", "hops", "mean_latency", "p99_latency", "req/s"},
		Notes:   "latency grows ~linearly with hops; short-request throughput drops accordingly — minimizing tiers wins. hops is read off a traced probe request, not assumed"}

	const hopLatency = 200 * time.Microsecond
	for tiers := 1; tiers <= 4; tiers++ {
		c, err := wls.New(wls.Options{Servers: 4, RealClock: true, TraceSample: 1})
		if err != nil {
			panic(err)
		}
		c.Net().SetDefaultLatency(hopLatency)

		// tier k calls tier k+1; the last tier answers.
		for k := tiers; k >= 1; k-- {
			k := k
			srv := c.Servers[k-1]
			var next *rmi.Stub
			if k < tiers {
				next = srv.Stub(fmt.Sprintf("tier-%d", k+1))
			}
			srv.Registry().Register(&rmi.Service{
				Name: fmt.Sprintf("tier-%d", k),
				Methods: map[string]rmi.MethodSpec{
					"handle": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
						if next == nil {
							return []byte("ok"), nil
						}
						res, err := next.Invoke(ctx, "handle", call.Args)
						if err != nil {
							return nil, err
						}
						return res.Body, nil
					}},
				},
			})
		}
		c.Settle(2)

		clientEp := c.Net().Endpoint("client:1")
		stub := rmi.NewStub("tier-1", clientEp, rmi.StaticView(c.Servers[0].Addr()))
		var hist metrics.Histogram
		start := wall.Now()
		const reqs = 300
		workload.Clients(4, reqs/4, func(_, _ int) {
			t0 := wall.Now()
			if _, err := stub.Invoke(context.Background(), "handle", nil); err != nil {
				panic(err)
			}
			hist.RecordDuration(wall.Since(t0))
		})
		elapsed := wall.Since(start)

		// The measured requests above carry no trace envelope (old-style
		// callers), so the tiers are wired for tracing but pay nothing.
		// One traced probe then verifies the hop count the experiment is
		// built on, straight from the trace.
		tr := trace.New("client", wall, trace.Options{Exporter: c.Traces()})
		pctx, root := tr.StartRoot(context.Background(), "probe", trace.KindClient)
		if _, err := stub.Invoke(pctx, "handle", nil); err != nil {
			panic(err)
		}
		root.Finish()
		hops := trace.HopCount(c.Traces().Snapshot(), root.Context().Trace)
		if hops != tiers {
			panic(fmt.Sprintf("E01: trace shows %d hops for %d tiers", hops, tiers))
		}

		t.AddRow(tiers, hops,
			time.Duration(hist.Mean()).Round(10*time.Microsecond),
			time.Duration(hist.P99()).Round(10*time.Microsecond),
			fmt.Sprintf("%.0f", float64(reqs)/elapsed.Seconds()))
		c.Stop()
	}
	return t
}

// runE02: throughput and tail latency under three balancing policies, on a
// homogeneous cluster and on one with a slow server.
func runE02() *Table {
	t := &Table{ID: "E02", Title: "Load-balancing policies",
		Source:  "§2.1",
		Columns: []string{"cluster", "policy", "req/s", "p99_latency"},
		Notes:   "homogeneous: round robin ≈ random (simple schemes suffice); heterogeneous: weighting helps — the case the paper calls rare"}

	run := func(label string, slow bool, policyName string, policy rmi.Policy) {
		c, err := wls.New(wls.Options{Servers: 4, RealClock: true})
		if err != nil {
			panic(err)
		}
		for i, s := range c.Servers {
			svcTime := 300 * time.Microsecond
			if slow && i == 0 {
				svcTime = 4 * svcTime
			}
			d := svcTime
			s.Registry().Register(&rmi.Service{
				Name: "Work",
				Methods: map[string]rmi.MethodSpec{
					"do": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
						wall.Sleep(d)
						return nil, nil
					}},
				},
			})
		}
		c.Settle(2)
		clientEp := c.Net().Endpoint(fmt.Sprintf("client-%s-%s:1", label, policyName))
		stub := rmi.NewStub("Work", clientEp, rmi.MemberView{Member: c.Servers[0].Member()}, rmi.WithPolicy(policy))
		var hist metrics.Histogram
		start := wall.Now()
		const reqs = 400
		workload.Clients(8, reqs/8, func(_, _ int) {
			t0 := wall.Now()
			if _, err := stub.Invoke(context.Background(), "do", nil); err != nil {
				panic(err)
			}
			hist.RecordDuration(wall.Since(t0))
		})
		elapsed := wall.Since(start)
		t.AddRow(label, policyName,
			fmt.Sprintf("%.0f", float64(reqs)/elapsed.Seconds()),
			time.Duration(hist.P99()).Round(10*time.Microsecond))
		c.Stop()
	}
	for _, cl := range []struct {
		label string
		slow  bool
	}{{"homogeneous", false}, {"one-slow-server", true}} {
		run(cl.label, cl.slow, "round-robin", rmi.NewRoundRobin())
		run(cl.label, cl.slow, "random", rmi.NewRandom(42))
		run(cl.label, cl.slow, "weighted", rmi.NewWeightBased(42, map[string]int{
			"server-1": 1, "server-2": 4, "server-3": 4, "server-4": 4,
		}))
	}
	return t
}

// runE03: a keyed service whose home serializes work; single-home vs
// hash-partitioned deployment across 1/2/4 servers.
func runE03() *Table {
	t := &Table{ID: "E03", Title: "Partitioning a concentrated service",
		Source:  "§2.1",
		Columns: []string{"deployment", "servers", "req/s", "speedup"},
		Notes:   "data-dependent routing over hash partitions scales near-linearly; the single home is the concentration limit"}

	var baseline float64
	for _, servers := range []int{1, 2, 4} {
		c, err := wls.New(wls.Options{Servers: 4, RealClock: true})
		if err != nil {
			panic(err)
		}
		// Each deployed partition serializes its requests (one mutex) and
		// burns a fixed service time — the per-place concentration limit.
		for i := 0; i < servers; i++ {
			var mu sync.Mutex
			c.Servers[i].Registry().Register(&rmi.Service{
				Name: "Counter",
				Methods: map[string]rmi.MethodSpec{
					"inc": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
						mu.Lock()
						//wls:nolint lockheld -- the held mutex models the partition's serialization; the sleep is its service time
						wall.Sleep(200 * time.Microsecond)
						mu.Unlock()
						return nil, nil
					}},
				},
			})
		}
		c.Settle(2)
		clientEp := c.Net().Endpoint(fmt.Sprintf("client-e03-%d:1", servers))
		addrs := make([]string, servers)
		for i := 0; i < servers; i++ {
			addrs[i] = c.Servers[i].Addr()
		}
		keys := workload.NewUniform(7, 64)
		stub := rmi.NewStub("Counter", clientEp, rmi.StaticView(addrs...))
		start := wall.Now()
		const reqs = 240
		workload.Clients(8, reqs/8, func(_, _ int) {
			key := keys.Next()
			// Data-dependent routing: hash the key to its partition.
			h := 0
			for _, ch := range key {
				h = h*31 + int(ch)
			}
			addr := addrs[(h%servers+servers)%servers]
			if _, err := stub.InvokeOn(context.Background(), addr, "inc", []byte(key)); err != nil {
				panic(err)
			}
		})
		rate := float64(reqs) / wall.Since(start).Seconds()
		if servers == 1 {
			baseline = rate
		}
		label := "partitioned"
		if servers == 1 {
			label = "single-home"
		}
		t.AddRow(label, servers, fmt.Sprintf("%.0f", rate), ratio(rate, baseline)+"x")
		c.Stop()
	}
	return t
}

// runE04: how many servers one logical request (and one transaction)
// touches under the default policy vs plain round robin.
func runE04() *Table {
	t := &Table{ID: "E04", Title: "Local preference and transaction affinity",
		Source:  "§3.1",
		Columns: []string{"policy", "avg_servers_per_tx", "remote_calls"},
		Notes:   "default policy (local pref + tx affinity) keeps multi-step transactions on 1 server; round robin spreads them across the cluster. servers-per-tx is read from per-transaction traces and cross-checked against the ServedBy replies"}

	for _, mode := range []string{"round-robin", "default"} {
		c, err := wls.New(wls.Options{Servers: 3, RealClock: true, TraceSample: 1})
		if err != nil {
			panic(err)
		}
		for _, s := range c.Servers {
			name := s.Name
			s.Registry().Register(&rmi.Service{
				Name: "Step",
				Methods: map[string]rmi.MethodSpec{
					"do": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
						return []byte(name), nil
					}},
				},
			})
		}
		c.Settle(2)
		var policy rmi.Policy = rmi.NewRoundRobin()
		if mode == "default" {
			policy = rmi.DefaultPolicy()
		}
		// The caller is an internal client on server-1.
		stub := c.Servers[0].Stub("Step", rmi.WithPolicy(policy))
		tracer := c.Servers[0].Tracer()
		const txs, steps = 50, 6
		totalServers, remote := 0, 0
		type probe struct {
			id      trace.TraceID
			touched map[string]bool
		}
		probes := make([]probe, 0, txs)
		for i := 0; i < txs; i++ {
			tctx, root := tracer.StartRoot(context.Background(), "tx-probe", trace.KindClient)
			txn := c.Servers[0].Tx.BeginCtx(tctx, 0)
			touched := map[string]bool{}
			for s := 0; s < steps; s++ {
				ctx := rmi.WithAffinity(tctx, txn.Servers()...)
				res, err := stub.Invoke(ctx, "do", nil)
				if err != nil {
					panic(err)
				}
				touched[res.ServedBy] = true
				txn.TouchServer(res.ServedBy)
				if res.ServedBy != "server-1" {
					remote++
				}
			}
			_ = txn.Rollback() // read-only probe transaction
			root.Finish()
			probes = append(probes, probe{root.Context().Trace, touched})
		}
		// servers-per-tx comes off the traces; the ServedBy-derived count is
		// the independent cross-check.
		spans := c.Traces().Snapshot()
		for _, p := range probes {
			traced := trace.ServersTouched(spans, p.id)
			if len(traced) != len(p.touched) {
				panic(fmt.Sprintf("E04 (%s): trace says %d servers, replies say %d", mode, len(traced), len(p.touched)))
			}
			totalServers += len(traced)
		}
		t.AddRow(mode, fmt.Sprintf("%.2f", float64(totalServers)/txs), remote)
		c.Stop()
	}
	return t
}

// runE05: a server crashes mid-workload, or the link back to the caller
// drops while a handler runs; compare ops completed and duplicate
// executions.
func runE05() *Table {
	t := &Table{ID: "E05", Title: "Failover safety",
		Source:  "§3.1",
		Columns: []string{"fault", "method", "attempts", "succeeded", "failed", "duplicate_execs"},
		Notes: "a crashed server refuses before anything runs, so both methods fail over (some fail only while membership catches up); " +
			"a lost reply follows a run, so only the idempotent method fails over and runs again — the non-idempotent one surfaces the error and never double-executes"}

	for _, fault := range []string{"crash", "reply lost"} {
		for _, idempotent := range []bool{true, false} {
			c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
			if err != nil {
				panic(err)
			}
			var executions sync.Map // opID → count
			// loseReply is set for an op whose reply the link drops: the
			// first server other than the caller to run it cuts itself off
			// from the caller before it returns.
			var loseReply atomic.Bool
			for _, s := range c.Servers {
				self := s.Addr()
				s.Registry().Register(&rmi.Service{
					Name: "Op",
					Methods: map[string]rmi.MethodSpec{
						"do": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
							n, _ := executions.LoadOrStore(string(call.Args), new(atomic.Int64))
							n.(*atomic.Int64).Add(1)
							if call.From != self && loseReply.CompareAndSwap(true, false) {
								c.Net().SetPartitioned(self, call.From, true)
							}
							return nil, nil
						}},
					},
				})
			}
			c.Settle(2)
			opts := []rmi.StubOption{rmi.WithPolicy(rmi.NewRoundRobin())}
			if idempotent {
				opts = append(opts, rmi.WithIdempotent("do"))
			}
			caller := c.Servers[1]
			stub := caller.Stub("Op", opts...)
			const attempts = 300
			succeeded, failed := 0, 0
			for i := 0; i < attempts; i++ {
				drop := fault == "reply lost" && i%10 == 0
				if fault == "crash" && i == attempts/2 {
					c.Crash("server-3")
				}
				loseReply.Store(drop)
				if _, err := stub.Invoke(context.Background(), "do", []byte(fmt.Sprintf("op-%d", i))); err != nil {
					failed++
				} else {
					succeeded++
				}
				if drop {
					loseReply.Store(false)
					for _, s := range c.Servers {
						c.Net().SetPartitioned(s.Addr(), caller.Addr(), false)
					}
				}
			}
			dups := 0
			executions.Range(func(_, v any) bool {
				if v.(*atomic.Int64).Load() > 1 {
					dups++
				}
				return true
			})
			label := "non-idempotent"
			if idempotent {
				label = "idempotent"
			}
			t.AddRow(fault, label, attempts, succeeded, failed, dups)
			c.Stop()
		}
	}
	return t
}

// runE26: real TCP — 64 clients reach a backend directly vs through one
// concentrating front end.
func runE26() *Table {
	t := &Table{ID: "E26", Title: "Session concentration",
		Source:  "§2.1",
		Columns: []string{"mode", "clients", "backend_connections"},
		Notes:   "the concentrator collapses N client sockets into 1 backend connection"}

	const clients = 64
	// Direct: every client dials the backend.
	backend, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	backend.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{} })
	var ts []*transport.Transport
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		ts = append(ts, cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Call(context.Background(), backend.Addr(), wire.Frame{}) // load probe; only the connection count matters
		}()
	}
	wg.Wait()
	t.AddRow("direct", clients, backend.NumConns())
	for _, cl := range ts {
		_ = cl.Close()
	}
	_ = backend.Close()

	// Concentrated: clients talk to a front end; the front end holds one
	// backend connection.
	backend2, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	backend2.SetHandler(func(string, wire.Frame) *wire.Frame { return &wire.Frame{} })
	front, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	front.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		resp, err := front.Call(context.Background(), backend2.Addr(), wire.Frame{Body: f.Body})
		if err != nil {
			return &wire.Frame{Body: []byte("err")}
		}
		return &resp
	})
	var ts2 []*transport.Transport
	for i := 0; i < clients; i++ {
		cl, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		ts2 = append(ts2, cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Call(context.Background(), front.Addr(), wire.Frame{}) // load probe; only the connection count matters
		}()
	}
	wg.Wait()
	t.AddRow("concentrated", clients, backend2.NumConns())
	for _, cl := range ts2 {
		_ = cl.Close()
	}
	_ = front.Close()
	_ = backend2.Close()
	return t
}
