package rmi_test

import (
	"context"
	"testing"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/rmi"
	"wls/internal/transport"
	"wls/internal/vclock"
)

// TestFullStackOverRealTCP runs the cluster protocols over real sockets:
// the same Registry/Stub code paths the simulation exercises, with
// transport.Transport as the rmi.Node. This is the parity check that the
// Node abstraction holds on both fabrics.
func TestFullStackOverRealTCP(t *testing.T) {
	clk := vclock.System
	bus := gossip.NewInMemory(clk, 1)
	cfg := cluster.Config{Name: "tcp", HeartbeatInterval: 50 * time.Millisecond, FailureTimeout: 200 * time.Millisecond}

	type srv struct {
		tr  *transport.Transport
		m   *cluster.Member
		reg *rmi.Registry
	}
	var servers []*srv
	for i := 0; i < 3; i++ {
		tr, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := cluster.NewMember(cfg, clk, bus, cluster.MemberInfo{
			Name:    "tcp-" + string(rune('a'+i)),
			Addr:    tr.Addr(),
			Machine: "m" + string(rune('1'+i)),
		})
		reg := rmi.NewRegistry(tr, m, nil)
		m.Start()
		servers = append(servers, &srv{tr, m, reg})
		t.Cleanup(func() { m.Stop(); tr.Close() })
	}
	for _, s := range servers {
		name := s.m.Self().Name
		s.reg.Register(&rmi.Service{
			Name: "Echo",
			Methods: map[string]rmi.MethodSpec{
				"echo": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					return append([]byte(name+":"), c.Args...), nil
				}},
			},
		})
	}
	time.Sleep(200 * time.Millisecond) // real heartbeats converge

	stub := rmi.NewStub("Echo", servers[0].tr,
		rmi.MemberView{Member: servers[0].m}, rmi.WithPolicy(rmi.NewRoundRobin()),
		rmi.WithIdempotent("echo"))
	seen := map[string]bool{}
	for i := 0; i < 9; i++ {
		res, err := stub.Invoke(context.Background(), "echo", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		seen[res.ServedBy] = true
	}
	if len(seen) != 3 {
		t.Fatalf("TCP round robin hit %d servers, want 3", len(seen))
	}

	// Failover over TCP: kill one server; echo is idempotent, so a dial
	// failure (not run) and a call lost on the dead conn (may have run)
	// are both retried on the survivors.
	servers[2].m.Stop()
	servers[2].tr.Close()
	for i := 0; i < 6; i++ {
		res, err := stub.Invoke(context.Background(), "echo", []byte("y"))
		if err != nil {
			t.Fatalf("TCP failover: %v", err)
		}
		if res.ServedBy == "tcp-c" {
			t.Fatal("dead server served a request")
		}
	}
}

// TestExternalClientOverTCP bootstraps an external tightly-coupled client
// against the TCP cluster-view service.
func TestExternalClientOverTCP(t *testing.T) {
	clk := vclock.System
	bus := gossip.NewInMemory(clk, 1)
	cfg := cluster.Config{Name: "tcp2", HeartbeatInterval: 50 * time.Millisecond, FailureTimeout: 200 * time.Millisecond}

	tr, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	m := cluster.NewMember(cfg, clk, bus, cluster.MemberInfo{Name: "solo", Addr: tr.Addr(), Machine: "m1"})
	reg := rmi.NewRegistry(tr, m, nil)
	m.Start()
	defer m.Stop()
	reg.Register(&rmi.Service{
		Name: "Time",
		Methods: map[string]rmi.MethodSpec{
			"now": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				return []byte("tick"), nil
			}},
		},
	})

	clientTr, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientTr.Close()
	ec := rmi.NewExternalClient(clientTr, clk, time.Second, tr.Addr())
	if err := ec.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := ec.Stub("Time").Invoke(context.Background(), "now", nil)
	if err != nil || string(res.Body) != "tick" {
		t.Fatalf("external TCP client: %q err=%v", res.Body, err)
	}
}
