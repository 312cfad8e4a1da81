// bench_test.go runs every experiment of the reproduction harness
// (internal/benchtest: one per figure and falsifiable claim of the paper,
// see DESIGN.md) as a sub-benchmark of BenchmarkExperiments, plus a set of
// micro-benchmarks for the hot paths the experiments ride on.
//
// Run a single experiment:  go test -run '^$' -bench 'Experiments/E05$' -benchtime 1x .
// Write its table as JSON:  ... -benchtime 1x . -args -tables out.json
// Run everything:           make bench
package wls_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"wls"
	"wls/internal/benchtest"
	"wls/internal/ejb"
	"wls/internal/jms"
	"wls/internal/rmi"
	"wls/internal/servlet"
)

var tablesPath = flag.String("tables", "", "write the tables of the experiments this run ran, as JSON, to the given file")

// BenchmarkExperiments runs each experiment once per iteration as the
// sub-benchmark named by its id and logs its table. With -tables it also
// writes the last table of each experiment run.
func BenchmarkExperiments(b *testing.B) {
	var tables []*benchtest.Table
	for _, e := range benchtest.All() {
		var last *benchtest.Table
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				last = e.Run()
			}
			b.Log("\n" + last.String())
		})
		if last != nil {
			tables = append(tables, last)
		}
	}
	if *tablesPath == "" || len(tables) == 0 {
		return
	}
	out, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(*tablesPath, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

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
