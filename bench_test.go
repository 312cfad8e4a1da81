// bench_test.go wires every experiment of the reproduction harness
// (internal/bench, E01–E33 without E31 — one per figure and falsifiable
// claim of the paper, see DESIGN.md) into `go test -bench`, plus a set of
// micro-benchmarks for the hot paths the experiments ride on.
//
// Run a single experiment:  go test -bench=BenchmarkE05 -benchtime=1x
// Run everything:           go test -bench=. -benchmem
package wls_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"wls"
	"wls/internal/bench"
	"wls/internal/ejb"
	"wls/internal/jms"
	"wls/internal/rmi"
	"wls/internal/servlet"
)

// runExperiment executes a harness experiment once per benchmark iteration
// and logs its table (visible with -v).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := e.Run()
		if i == 0 {
			b.Log("\n" + table.String())
		}
	}
}

func BenchmarkE01TierHops(b *testing.B)           { runExperiment(b, "E01") }
func BenchmarkE02LoadBalancing(b *testing.B)      { runExperiment(b, "E02") }
func BenchmarkE03Partitioning(b *testing.B)       { runExperiment(b, "E03") }
func BenchmarkE04StatelessLocality(b *testing.B)  { runExperiment(b, "E04") }
func BenchmarkE05Failover(b *testing.B)           { runExperiment(b, "E05") }
func BenchmarkE06PluginFailover(b *testing.B)     { runExperiment(b, "E06") }
func BenchmarkE07ExternalFailover(b *testing.B)   { runExperiment(b, "E07") }
func BenchmarkE08DeltaPolicy(b *testing.B)        { runExperiment(b, "E08") }
func BenchmarkE09RingPlacement(b *testing.B)      { runExperiment(b, "E09") }
func BenchmarkE10CacheConsistency(b *testing.B)   { runExperiment(b, "E10") }
func BenchmarkE11FlushCrossover(b *testing.B)     { runExperiment(b, "E11") }
func BenchmarkE12OptimisticVsLocks(b *testing.B)  { runExperiment(b, "E12") }
func BenchmarkE13Backdoor(b *testing.B)           { runExperiment(b, "E13") }
func BenchmarkE14PageCache(b *testing.B)          { runExperiment(b, "E14") }
func BenchmarkE15RowSet(b *testing.B)             { runExperiment(b, "E15") }
func BenchmarkE16SingletonMigration(b *testing.B) { runExperiment(b, "E16") }
func BenchmarkE17PartitionedQueue(b *testing.B)   { runExperiment(b, "E17") }
func BenchmarkE18Aggregation(b *testing.B)        { runExperiment(b, "E18") }
func BenchmarkE19Conversations(b *testing.B)      { runExperiment(b, "E19") }
func BenchmarkE20SAFvsRPC(b *testing.B)           { runExperiment(b, "E20") }
func BenchmarkE21InMemoryConv(b *testing.B)       { runExperiment(b, "E21") }
func BenchmarkE22Colocation(b *testing.B)         { runExperiment(b, "E22") }
func BenchmarkE23BootTime(b *testing.B)           { runExperiment(b, "E23") }
func BenchmarkE24Warehouse(b *testing.B)          { runExperiment(b, "E24") }
func BenchmarkE25Admission(b *testing.B)          { runExperiment(b, "E25") }
func BenchmarkE26Concentration(b *testing.B)      { runExperiment(b, "E26") }
func BenchmarkE27TransportHotPath(b *testing.B)   { runExperiment(b, "E27") }
func BenchmarkE29TraceOverhead(b *testing.B)      { runExperiment(b, "E29") }
func BenchmarkE33ScaleOut(b *testing.B)           { runExperiment(b, "E33") }
func BenchmarkA01HeartbeatSweep(b *testing.B)     { runExperiment(b, "A01") }
func BenchmarkA02LossyBus(b *testing.B)           { runExperiment(b, "A02") }

// --- Micro-benchmarks on the hot paths ----------------------------------------

// BenchmarkRMIInvoke measures one clustered stateless invocation end to end
// on the simulated fabric.
func BenchmarkRMIInvoke(b *testing.B) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		b.Fatal(err)
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
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Invoke(context.Background(), "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatefulInvoke measures a replicated stateful-bean call (one
// update, one synchronous delta ship).
func BenchmarkStatefulInvoke(b *testing.B) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	var home *ejb.StatefulHome
	for _, s := range c.Servers {
		h := s.EJB.DeployStateful(ejb.StatefulSpec{
			Name: "Cart",
			Methods: map[string]ejb.StatefulMethod{
				"add": func(sc *ejb.StatefulCtx, args []byte) ([]byte, error) {
					n, _ := strconv.Atoi(sc.Get("n"))
					sc.Set("n", strconv.Itoa(n+1))
					return nil, nil
				},
			},
		})
		if home == nil {
			home = h
		}
	}
	c.Settle(2)
	h, err := home.Create(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Invoke(context.Background(), "add", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServletSession measures one request through the proxy plug-in
// with replicated session state.
func BenchmarkServletSession(b *testing.B) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		s.Web.Handle("/n", func(r *servlet.Request) servlet.Response {
			n, _ := strconv.Atoi(r.Session.Get("n"))
			r.Session.Set("n", strconv.Itoa(n+1))
			return servlet.Response{Body: []byte("ok")}
		})
	}
	c.Settle(2)
	proxy := c.ProxyPlugin("web:80")
	resp, err := proxy.Route(context.Background(), "/n", "", nil)
	if err != nil {
		b.Fatal(err)
	}
	cookie := resp.Cookie
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err = proxy.Route(context.Background(), "/n", cookie, nil)
		if err != nil {
			b.Fatal(err)
		}
		cookie = resp.Cookie
	}
}

// BenchmarkEntityReadCached measures a TTL-cached entity read (the §3.3
// fast path).
func BenchmarkEntityReadCached(b *testing.B) {
	c, err := wls.New(wls.Options{Servers: 1, RealClock: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	c.DB.Put("items", "k", map[string]string{"v": "x"})
	home := c.Servers[0].EJB.DeployEntity(ejb.EntitySpec{
		Name: "Item", Table: "items", Mode: ejb.EntityTTL, TTL: time.Hour,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := home.FindReadOnly("k"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTx2PC measures a two-resource distributed commit (in-memory
// resources; the protocol cost, not the fsync cost).
func BenchmarkTx2PC(b *testing.B) {
	c, err := wls.New(wls.Options{Servers: 1, RealClock: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	c.DB.Put("t", "k1", map[string]string{"v": "0"})
	c.DB.Put("t", "k2", map[string]string{"v": "0"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := c.Servers[0].Tx.Begin(0)
		s1 := c.DB.Session(txn.ID())
		s1.Update("t", "k1", map[string]string{"v": fmt.Sprint(i)})
		txn.Enlist("db", s1)
		q := c.Servers[0].JMS.Queue("audit")
		if _, err := q.SendTx(txn, jms.Message{Body: []byte("audit")}); err != nil {
			b.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
