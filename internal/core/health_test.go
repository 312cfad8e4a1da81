package core_test

import (
	"context"
	"runtime"
	"testing"

	"wls/internal/core"
	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/wire"
)

func TestHealthMonitorAggregatesWorst(t *testing.T) {
	h := core.NewHealthMonitor()
	if h.Overall() != core.HealthOK {
		t.Fatal("empty monitor should be OK")
	}
	h.RegisterCheck("jms", func() core.HealthState { return core.HealthOK })
	h.RegisterCheck("jdbc", func() core.HealthState { return core.HealthWarn })
	if h.Overall() != core.HealthWarn {
		t.Fatalf("overall = %v", h.Overall())
	}
	h.RegisterCheck("tx", func() core.HealthState { return core.HealthCritical })
	if h.Overall() != core.HealthCritical {
		t.Fatalf("overall = %v", h.Overall())
	}
	rep := h.Report()
	if len(rep) != 3 || rep[0].Subsystem != "jdbc" || rep[1].Subsystem != "jms" {
		t.Fatalf("report = %v", rep)
	}
}

func TestHealthLifecycle(t *testing.T) {
	h := core.NewHealthMonitor()
	if h.Lifecycle() != core.LifecycleStarting {
		t.Fatal("should start in starting")
	}
	h.SetLifecycle(core.LifecycleRunning)
	if h.Lifecycle() != core.LifecycleRunning || h.Overall() != core.HealthOK {
		t.Fatal("running server should be OK")
	}
	h.SetLifecycle(core.LifecycleShutdown)
	if h.Overall() != core.HealthFailed {
		t.Fatal("shutdown server reports failed")
	}
}

func TestHealthStateStrings(t *testing.T) {
	if core.HealthOK.String() != "ok" || core.HealthFailed.String() != "failed" ||
		core.LifecycleSuspended.String() != "suspended" {
		t.Fatal("string forms")
	}
}

func TestHealthQueryOverRMI(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	h := core.NewHealthMonitor()
	h.SetLifecycle(core.LifecycleRunning)
	h.RegisterCheck("jms", func() core.HealthState { return core.HealthWarn })
	f.Servers[0].Registry.Register(h.Service())
	f.Settle(2)

	overall, lc, report, err := core.QueryHealth(context.Background(),
		f.Servers[1].Endpoint, f.Servers[0].Endpoint.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if overall != core.HealthWarn || lc != core.LifecycleRunning {
		t.Fatalf("overall=%v lifecycle=%v", overall, lc)
	}
	if len(report) != 1 || report[0].Subsystem != "jms" || report[0].State != core.HealthWarn {
		t.Fatalf("report = %v", report)
	}
}

func TestHealthQueryUnreachableIsFailed(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	f.Crash("server-1")
	overall, _, _, err := core.QueryHealth(context.Background(),
		f.Servers[1].Endpoint, f.Servers[0].Endpoint.Addr())
	if err == nil || overall != core.HealthFailed {
		t.Fatalf("want failed+error, got %v %v", overall, err)
	}
}

// TestQueryHealthRefusesALyingCount answers a health query with a short
// reply whose subsystem count is negative or far beyond what its bytes
// hold: QueryHealth must fail, not panic, return no report, and size
// nothing by the count.
func TestQueryHealthRefusesALyingCount(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	replies := make(chan []byte, 1)
	f.Servers[0].Registry.Register(&rmi.Service{Name: core.HealthServiceName, System: true,
		Methods: map[string]rmi.MethodSpec{"check": {
			Handler: func(context.Context, *rmi.Call) ([]byte, error) { return <-replies, nil }}}})
	f.Settle(2)
	for _, n := range []int{-1, 1 << 24, 1 << 40} {
		e := wire.NewEncoder(8)
		e.Int(int(core.HealthOK))
		e.Int(int(core.LifecycleRunning))
		e.Int(n)
		e.Byte(0)
		replies <- e.Bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		overall, _, report, err := core.QueryHealth(context.Background(),
			f.Servers[1].Endpoint, f.Servers[0].Endpoint.Addr())
		runtime.ReadMemStats(&after)
		if err == nil || report != nil || overall != core.HealthFailed {
			t.Fatalf("count %d: got %v, %d entries, %v; want failed, no report and an error", n, overall, len(report), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("count %d: allocated %d bytes", n, got)
		}
	}
}
