package rmi_test

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/netsim"
	"wls/internal/rmi"
	"wls/internal/transport"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// classFixture is one caller and two servers, A and B, each deploying Pay
// with a non-idempotent "charge" and an idempotent "get". A stub on the
// caller tries A first, then B. The faults are the fabric's own.
type classFixture struct {
	caller       *countingNode
	addrA, addrB string
	regA         *rmi.Registry
	runsA, runsB atomic.Int64
	// inA runs inside A's handler, after the run is counted.
	inA func() error
	// budget is the clock the caller's budget runs on.
	budget *vclock.Virtual

	// refuseA makes A refuse the call before it leaves the caller.
	refuseA func()
	// loseReplyA, called inside A's handler, loses A's reply: the
	// request has run, and the caller hears nothing back.
	loseReplyA func()
	// closeCaller kills the caller's node before it writes anything.
	closeCaller func()
}

// countingNode counts the attempts the stub makes through it.
type countingNode struct {
	rmi.Node
	calls atomic.Int64
}

func (n *countingNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	n.calls.Add(1)
	return n.Node.Call(ctx, to, f)
}

// deploy builds a registry on node and deploys Pay, counting runs.
func (fx *classFixture) deploy(node rmi.Node, name string, runs *atomic.Int64, isA bool) *rmi.Registry {
	m := cluster.NewMember(cluster.Config{Name: "failclass"}, vclock.System,
		gossip.NewInMemory(vclock.System, 1), cluster.MemberInfo{Name: name, Addr: node.Addr()})
	reg := rmi.NewRegistry(node, m, nil)
	h := func(ctx context.Context, c *rmi.Call) ([]byte, error) {
		runs.Add(1)
		if isA && fx.inA != nil {
			if err := fx.inA(); err != nil {
				return nil, err
			}
		}
		return []byte("paid"), nil
	}
	reg.Register(&rmi.Service{Name: "Pay", Methods: map[string]rmi.MethodSpec{
		"charge": {Handler: h},
		"get":    {Idempotent: true, Handler: h},
	}})
	return reg
}

func newNetsimClass(t *testing.T) *classFixture {
	fx := &classFixture{}
	fabric := netsim.New(vclock.System)
	caller, a, b := fabric.Endpoint("caller"), fabric.Endpoint("a"), fabric.Endpoint("b")
	fx.caller = &countingNode{Node: caller}
	fx.addrA, fx.addrB = a.Addr(), b.Addr()
	fx.regA = fx.deploy(a, "A", &fx.runsA, true)
	fx.deploy(b, "B", &fx.runsB, false)
	fx.refuseA = func() { fabric.SetPartitioned("caller", "a", true) }
	// A partition installed while the handler runs: the request was
	// delivered, the reply cannot come back.
	fx.loseReplyA = func() { fabric.SetPartitioned("caller", "a", true) }
	fx.closeCaller = func() { caller.Close() }
	t.Cleanup(func() { caller.Close(); a.Close(); b.Close() })
	return fx
}

func newTCPClass(t *testing.T) *classFixture {
	fx := &classFixture{}
	listen := func() *transport.Transport {
		tr, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	caller, a, b := listen(), listen(), listen()
	p := newLinkProxy(t, a.Addr())
	fx.caller = &countingNode{Node: caller}
	fx.addrA, fx.addrB = p.ln.Addr().String(), b.Addr()
	fx.regA = fx.deploy(a, "A", &fx.runsA, true)
	fx.deploy(b, "B", &fx.runsB, false)
	fx.refuseA = p.close
	// Kill the proxied link from inside the handler, once: the request ran,
	// and its reply has no connection to travel on. A transport that sent
	// the request again would find a fresh link and run it twice.
	var once sync.Once
	fx.loseReplyA = func() { once.Do(p.kill) }
	fx.closeCaller = func() { caller.Close() }
	return fx
}

// linkProxy forwards every TCP connection it accepts to target: the link
// between a caller and a server, which kill cuts mid-call.
type linkProxy struct {
	ln net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

func newLinkProxy(t *testing.T, target string) *linkProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &linkProxy{ln: ln}
	t.Cleanup(p.close)
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			go pipe(out, in)
			go pipe(in, out)
		}
	}()
	return p
}

func pipe(dst, src net.Conn) {
	_, _ = io.Copy(dst, src) // ends when either side is closed
	dst.Close()
	src.Close()
}

// kill closes every connection the proxy carries.
func (p *linkProxy) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// close stops accepting, so a dial to the proxy is refused, and kills.
func (p *linkProxy) close() {
	p.ln.Close()
	p.kill()
}

// closedGate is an execute queue that refuses every request with BUSY.
func closedGate() *rmi.Gate {
	g := rmi.NewGate(rmi.QueueConfig{}, vclock.System, nil)
	g.Close()
	return g
}

// classWant is what one invocation of a failure class must come to.
type classWant struct {
	attempts     int64 // 2: the stub failed over to B; 1: it surfaced the error
	runsA, runsB int64
	err          string // "" success; else the class of the error surfaced
}

// TestFailureClassesOnBothFabrics holds §3.1's rule to one table, on both
// fabrics: a failure is sent to the next server when the method is
// idempotent or the failure proves nothing ran; a non-idempotent handler
// never runs twice. DESIGN.md's failure-class table is this test's rows.
func TestFailureClassesOnBothFabrics(t *testing.T) {
	failover := classWant{attempts: 2, runsB: 1}
	rows := []struct {
		name          string
		setup         func(*testing.T, *classFixture)
		idem, nonIdem classWant
	}{
		{"refused or unreachable", func(_ *testing.T, fx *classFixture) { fx.refuseA() },
			failover, failover},
		{"dead before write", func(_ *testing.T, fx *classFixture) { fx.closeCaller() },
			classWant{attempts: 2, err: "not run"}, classWant{attempts: 2, err: "not run"}},
		{"died after the handler ran", func(_ *testing.T, fx *classFixture) {
			fx.inA = func() error { fx.loseReplyA(); return nil }
		}, classWant{attempts: 2, runsA: 1, runsB: 1}, classWant{attempts: 1, runsA: 1, err: "may have run"}},
		{"deadline", func(t *testing.T, fx *classFixture) {
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })
			// The caller's budget runs out while A's handler runs.
			fx.inA = func() error { fx.budget.Advance(2 * time.Second); <-release; return nil }
		}, classWant{attempts: 1, runsA: 1, err: "budget"}, classWant{attempts: 1, runsA: 1, err: "budget"}},
		{"busy", func(_ *testing.T, fx *classFixture) { fx.regA.SetGate(closedGate()) },
			failover, failover},
		{"not deployed", func(_ *testing.T, fx *classFixture) { fx.regA.Unregister("Pay") },
			failover, failover},
		{"application error", func(_ *testing.T, fx *classFixture) {
			fx.inA = func() error { return &rmi.AppError{Msg: "card declined"} }
		}, classWant{attempts: 1, runsA: 1, err: "app"}, classWant{attempts: 1, runsA: 1, err: "app"}},
		{"handler panicked", func(_ *testing.T, fx *classFixture) {
			fx.inA = func() error { panic("card reader jammed") }
		}, classWant{attempts: 2, runsA: 1, runsB: 1}, classWant{attempts: 1, runsA: 1, err: "may have run"}},
	}
	fabrics := []struct {
		name string
		new  func(*testing.T) *classFixture
	}{{"netsim", newNetsimClass}, {"tcp", newTCPClass}}
	for _, fab := range fabrics {
		for _, row := range rows {
			for _, method := range []string{"get", "charge"} {
				want := row.nonIdem
				if method == "get" {
					want = row.idem
				}
				t.Run(fab.name+"/"+row.name+"/"+method, func(t *testing.T) {
					fx := fab.new(t)
					fx.budget = vclock.NewVirtualAtZero()
					row.setup(t, fx)
					stub := rmi.NewStub("Pay", fx.caller, rmi.StaticView(fx.addrA, fx.addrB),
						rmi.WithPolicy(pinFirst{fx.addrA}), rmi.WithIdempotent("get"))
					_, err := stub.Invoke(rmi.WithBudget(context.Background(), fx.budget, time.Second), method, nil)
					got := classWant{attempts: fx.caller.calls.Load(), runsA: fx.runsA.Load(), runsB: fx.runsB.Load(), err: errClass(err)}
					if got != want {
						t.Fatalf("got %+v, want %+v (err: %v)", got, want, err)
					}
				})
			}
		}
	}
}

// TestHandlerPanicFailsOneRequest: on both fabrics, a handler that panics
// fails its own request, not its server. The caller gets a system error
// and a non-idempotent method is not sent again; rmi.handler_panics counts
// the panic, and the server runs the next request.
func TestHandlerPanicFailsOneRequest(t *testing.T) {
	for _, fab := range []struct {
		name string
		new  func(*testing.T) *classFixture
	}{{"netsim", newNetsimClass}, {"tcp", newTCPClass}} {
		t.Run(fab.name, func(t *testing.T) {
			fx := fab.new(t)
			fx.inA = func() error {
				if fx.runsA.Load() == 1 {
					panic("card reader jammed")
				}
				return nil
			}
			stub := rmi.NewStub("Pay", fx.caller, rmi.StaticView(fx.addrA, fx.addrB),
				rmi.WithPolicy(pinFirst{fx.addrA}))
			_, err := stub.Invoke(context.Background(), "charge", nil)
			if errClass(err) != "may have run" || !strings.Contains(err.Error(), "failed after possible side effects") {
				t.Fatalf("panicking charge: err = %v, want a system error after possible side effects", err)
			}
			if got := [3]int64{fx.caller.calls.Load(), fx.runsA.Load(), fx.runsB.Load()}; got != [3]int64{1, 1, 0} {
				t.Fatalf("attempts, runs on A, runs on B = %v, want [1 1 0]", got)
			}
			if n := fx.regA.Metrics().Counter("rmi.handler_panics").Value(); n != 1 {
				t.Fatalf("rmi.handler_panics = %d, want 1", n)
			}
			res, err := stub.Invoke(context.Background(), "charge", nil)
			if err != nil || string(res.Body) != "paid" || fx.runsA.Load() != 2 {
				t.Fatalf("next charge on A: %q, %v (runs %d)", res.Body, err, fx.runsA.Load())
			}
		})
	}
}

// errClass names what an Invoke error says about the request.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case rmi.IsAppError(err):
		return "app"
	case errors.Is(err, rmi.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, wire.ErrNotRun):
		return "not run"
	case errors.Is(err, rmi.ErrNotRetryable):
		return "may have run"
	default:
		return err.Error()
	}
}
