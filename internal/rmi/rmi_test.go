package rmi_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/cluster"
	"wls/internal/rmi"
	"wls/internal/simtest"
)

// deployEcho registers an echo service on the given servers; the response
// records which server handled the call.
func deployEcho(servers ...*simtest.Server) {
	for _, s := range servers {
		name := s.Name
		s.Registry.Register(&rmi.Service{
			Name: "Echo",
			Methods: map[string]rmi.MethodSpec{
				"echo": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					return append([]byte(name+":"), c.Args...), nil
				}},
			},
		})
	}
}

func TestInvokeBasic(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	res, err := stub.Invoke(context.Background(), "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body[len(res.Body)-2:]) != "hi" {
		t.Fatalf("body = %q", res.Body)
	}
	if res.ServedBy == "" {
		t.Fatal("ServedBy empty")
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		res, err := stub.Invoke(context.Background(), "echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.ServedBy]++
	}
	if len(counts) != 3 {
		t.Fatalf("round robin hit %d servers, want 3: %v", len(counts), counts)
	}
	for name, c := range counts {
		if c != 10 {
			t.Fatalf("uneven round robin: %s=%d (all: %v)", name, c, counts)
		}
	}
}

func TestLocalPreferenceAlwaysPicksLocal(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	stub := f.Servers[1].Stub("Echo") // default policy includes local preference
	for i := 0; i < 20; i++ {
		res, err := stub.Invoke(context.Background(), "echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy != "server-2" {
			t.Fatalf("request left the local server: served by %s", res.ServedBy)
		}
	}
}

func TestLocalPreferenceFallsBackWhenNotDeployedLocally(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers[0], f.Servers[2]) // not on server-2
	f.Settle(2)

	stub := f.Servers[1].Stub("Echo")
	res, err := stub.Invoke(context.Background(), "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy == "server-2" {
		t.Fatal("service is not deployed on server-2")
	}
}

func TestTxAffinityPrefersEnlistedServers(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 4})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	// Client on server-1; transaction already involves server-3.
	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.TxAffinity{Next: rmi.NewRoundRobin()}))
	ctx := rmi.WithAffinity(context.Background(), "server-3")
	for i := 0; i < 12; i++ {
		res, err := stub.Invoke(ctx, "echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Either local (doesn't spread) or already-enlisted server-3.
		if res.ServedBy != "server-3" && res.ServedBy != "server-1" {
			t.Fatalf("transaction spread to %s", res.ServedBy)
		}
	}
}

func TestRandomPolicyCoversCluster(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRandom(42)))
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		res, err := stub.Invoke(context.Background(), "echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.ServedBy] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random policy hit %d servers, want 3", len(seen))
	}
}

func TestWeightBasedSkew(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(
		rmi.NewWeightBased(7, map[string]int{"server-1": 9, "server-2": 1})))
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		res, err := stub.Invoke(context.Background(), "echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.ServedBy]++
	}
	if counts["server-1"] < 200 {
		t.Fatalf("weight 9:1 produced %v", counts)
	}
}

func TestFailoverOnCrashBeforeSend(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	// Crash server-1; its endpoint refuses traffic, an error that
	// satisfies wire.ErrNotRun, so the stub safely fails over even though membership
	// has not yet noticed the failure.
	f.Crash("server-1")
	stub := f.Servers[1].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	for i := 0; i < 10; i++ {
		res, err := stub.Invoke(context.Background(), "echo", nil)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if res.ServedBy == "server-1" {
			t.Fatal("crashed server served a request")
		}
	}
}

func TestNonIdempotentDoesNotDoubleExecute(t *testing.T) {
	// E05 core property: a non-idempotent method must never execute twice
	// for a single logical invocation, even across failover attempts.
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	var executions atomic.Int64
	for _, s := range f.Servers {
		s.Registry.Register(&rmi.Service{
			Name: "Debit",
			Methods: map[string]rmi.MethodSpec{
				"debit": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					executions.Add(1)
					return nil, nil
				}},
			},
		})
	}
	f.Settle(2)

	stub := f.Servers[0].Stub("Debit", rmi.WithPolicy(rmi.NewRoundRobin()))
	for i := 0; i < 20; i++ {
		if _, err := stub.Invoke(context.Background(), "debit", nil); err != nil {
			t.Fatal(err)
		}
	}
	if executions.Load() != 20 {
		t.Fatalf("20 invocations produced %d executions", executions.Load())
	}
}

func TestNoFailoverAfterSideEffects(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	var executed atomic.Int64
	for _, s := range f.Servers {
		s.Registry.Register(&rmi.Service{
			Name: "Flaky",
			Methods: map[string]rmi.MethodSpec{
				"op": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					executed.Add(1)
					return nil, errors.New("disk exploded after the write")
				}},
			},
		})
	}
	f.Settle(2)

	stub := f.Servers[0].Stub("Flaky", rmi.WithPolicy(rmi.NewRoundRobin()))
	_, err := stub.Invoke(context.Background(), "op", nil)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, rmi.ErrNotRetryable) {
		t.Fatalf("want ErrNotRetryable, got %v", err)
	}
	if executed.Load() != 1 {
		t.Fatalf("non-idempotent op executed %d times, want exactly 1", executed.Load())
	}
}

func TestIdempotentRetriesAfterSystemError(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	var calls atomic.Int64
	for i, s := range f.Servers {
		fail := i == 0 // server-1 always fails
		s.Registry.Register(&rmi.Service{
			Name: "Lookup",
			Methods: map[string]rmi.MethodSpec{
				"get": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					calls.Add(1)
					if fail {
						return nil, errors.New("transient failure")
					}
					return []byte("value"), nil
				}},
			},
		})
	}
	f.Settle(2)

	// Pin the first attempt to the failing server with round robin order.
	stub := f.Servers[0].Stub("Lookup",
		rmi.WithPolicy(rmi.LocalPreference{Next: rmi.NewRoundRobin()}),
		rmi.WithIdempotent("get"))
	res, err := stub.Invoke(context.Background(), "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "value" {
		t.Fatalf("body = %q", res.Body)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (fail on local, retry remote)", calls.Load())
	}
}

func TestAppErrorNeverFailsOver(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	var calls atomic.Int64
	for _, s := range f.Servers {
		s.Registry.Register(&rmi.Service{
			Name: "Biz",
			Methods: map[string]rmi.MethodSpec{
				"op": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					calls.Add(1)
					return nil, &rmi.AppError{Msg: "insufficient funds"}
				}},
			},
		})
	}
	f.Settle(2)

	stub := f.Servers[0].Stub("Biz", rmi.WithIdempotent("op"))
	_, err := stub.Invoke(context.Background(), "op", nil)
	if !rmi.IsAppError(err) {
		t.Fatalf("want AppError, got %v", err)
	}
	if err.Error() != "insufficient funds" {
		t.Fatalf("message = %q", err.Error())
	}
	if calls.Load() != 1 {
		t.Fatalf("app error retried: calls=%d", calls.Load())
	}
}

func TestNoServers(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	stub := f.Servers[0].Stub("Ghost")
	_, err := stub.Invoke(context.Background(), "m", nil)
	if !errors.Is(err, rmi.ErrNoServers) {
		t.Fatalf("want ErrNoServers, got %v", err)
	}
}

func TestStaleViewFailsOverOnNoSuchService(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	// Undeploy on server-1 but invoke before the withdrawal propagates
	// everywhere: the stub must fail over on no-such-service.
	f.Servers[0].Registry.Unregister("Echo")

	// server-2's view may still list server-1 for a beat; force the stale
	// path by using a static order starting at server-1.
	stub := f.Servers[1].Stub("Echo", rmi.WithPolicy(pinFirst{"server-1"}))
	res, err := stub.Invoke(context.Background(), "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "server-2" {
		t.Fatalf("served by %s, want server-2", res.ServedBy)
	}
}

// pinFirst orders the named server first, for deterministic failover tests.
type pinFirst struct{ name string }

func (p pinFirst) Order(_ context.Context, _ string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	out := make([]cluster.MemberInfo, 0, len(cands))
	for _, c := range cands {
		if c.Name == p.name {
			out = append(out, c)
		}
	}
	for _, c := range cands {
		if c.Name != p.name {
			out = append(out, c)
		}
	}
	return out
}

func TestUnknownMethodIsRetryableNotFatal(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	stub := f.Servers[0].Stub("Echo")
	_, err := stub.Invoke(context.Background(), "nope", nil)
	if err == nil {
		t.Fatal("want error for unknown method")
	}
}

func TestInvokeOnBypassesLoadBalancing(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	target := f.Servers[2]
	stub := f.Servers[0].Stub("Echo")
	res, err := stub.InvokeOn(context.Background(), target.Endpoint.Addr(), "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "server-3" {
		t.Fatalf("served by %s, want server-3", res.ServedBy)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := stub.Invoke(context.Background(), "echo", []byte(fmt.Sprint(i)))
			if err != nil {
				errs <- err
				return
			}
			want := fmt.Sprint(i)
			if got := string(res.Body[len(res.Body)-len(want):]); got != want {
				errs <- fmt.Errorf("cross-wired: got %q want %q", got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// --- External clients -----------------------------------------------------

func TestExternalClientBootstrapAndInvoke(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	clientEp := f.Net.Endpoint("client:0")
	ec := rmi.NewExternalClient(clientEp, f.Clock, time.Second, f.Servers[0].Endpoint.Addr())
	if err := ec.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ec.Members()) != 3 {
		t.Fatalf("cached view has %d members", len(ec.Members()))
	}
	stub := ec.Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	seen := map[string]bool{}
	for i := 0; i < 9; i++ {
		res, err := stub.Invoke(context.Background(), "echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.ServedBy] = true
	}
	if len(seen) != 3 {
		t.Fatalf("external client balanced across %d servers, want 3", len(seen))
	}
}

func TestExternalClientSurvivesBootstrapCrash(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)

	clientEp := f.Net.Endpoint("client:0")
	ec := rmi.NewExternalClient(clientEp, f.Clock, time.Second, f.Servers[0].Endpoint.Addr())
	if err := ec.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The bootstrap server dies; refresh must succeed via cached members.
	f.Crash("server-1")
	if err := ec.Refresh(context.Background()); err != nil {
		t.Fatalf("refresh via cached members: %v", err)
	}
	stub := ec.Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	for i := 0; i < 6; i++ {
		if _, err := stub.Invoke(context.Background(), "echo", nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExternalClientPeriodicRefresh(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployEcho(f.Servers[0])
	f.Settle(2)

	clientEp := f.Net.Endpoint("client:0")
	ec := rmi.NewExternalClient(clientEp, f.Clock, 500*time.Millisecond, f.Servers[0].Endpoint.Addr())
	if err := ec.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ec.Start()
	defer ec.Stop()

	if len(ec.Candidates("Echo")) != 1 {
		t.Fatalf("candidates = %d, want 1", len(ec.Candidates("Echo")))
	}
	// Deploy on server-2; after a refresh interval the client sees it.
	deployEcho(f.Servers[1])
	f.Settle(8) // > refresh interval
	if len(ec.Candidates("Echo")) != 2 {
		t.Fatalf("after refresh, candidates = %d, want 2", len(ec.Candidates("Echo")))
	}
}

func TestBuiltinViewServiceDeployedEverywhere(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	for _, s := range f.Servers {
		if !s.Registry.Deployed(rmi.ViewServiceName) {
			t.Fatalf("%s missing builtin view service", s.Name)
		}
	}
}
