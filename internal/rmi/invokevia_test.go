package rmi_test

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"wls/internal/cluster"
	"wls/internal/metrics"
	"wls/internal/netsim"
	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// countingPolicy keeps the view's order and counts how often it is asked.
type countingPolicy struct{ calls *atomic.Int64 }

func (p countingPolicy) Order(_ context.Context, _ string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	p.calls.Add(1)
	return append([]cluster.MemberInfo(nil), cands...)
}

// TestInvokeViaOrder holds InvokeVia to its order: the members of first in
// order, then the view's other candidates in the policy's order, each
// once, with the policy asked only when first is used up; args is written
// for each member called; a member of first is attempted while its
// breaker is open; and a view with no candidates serves a call that names
// its first member.
func TestInvokeViaOrder(t *testing.T) {
	fabric := netsim.New(vclock.System)
	ep := fabric.Endpoint("caller")
	t.Cleanup(func() { ep.Close() })
	caller := &countingNode{Node: ep}
	var fx classFixture
	var runs [3]atomic.Int64
	var m [3]cluster.MemberInfo
	for i, name := range []string{"a", "b", "c"} {
		ep := fabric.Endpoint(name)
		t.Cleanup(func() { ep.Close() })
		fx.deploy(ep, name, &runs[i], false)
		m[i] = cluster.MemberInfo{Name: ep.Addr(), Addr: ep.Addr()}
	}
	a, b, c := m[0], m[1], m[2]
	var orders atomic.Int64
	res := rmi.NewResilience(0, simtest.FrozenClock{Virtual: vclock.NewVirtualAtZero()}, metrics.NewRegistry())
	stub := rmi.NewStub("Pay", caller, rmi.StaticView(a.Addr, b.Addr, c.Addr),
		rmi.WithPolicy(countingPolicy{&orders}), rmi.WithIdempotent("get"), rmi.WithResilience(res))

	call := func(first ...cluster.MemberInfo) (served string, callees []string, err error) {
		t.Helper()
		caller.calls.Store(0)
		r, err := stub.InvokeVia(context.Background(), first, "get", func(e *wire.Encoder, callee string) {
			callees = append(callees, callee)
		})
		return r.ServedBy, callees, err
	}
	refuse := func(x cluster.MemberInfo, broken bool) { fabric.SetPartitioned("caller", x.Addr, broken) }

	if served, callees, err := call(b); err != nil || served != b.Name || len(callees) != 1 || orders.Load() != 0 {
		t.Fatalf("first serves: served by %q, callees %v, %d orders, err %v; want %s, one callee, no order", served, callees, orders.Load(), err, b.Name)
	}

	refuse(b, true)
	refuse(a, true)
	served, callees, err := call(b, a)
	if want := []string{b.Name, a.Name, c.Name}; err != nil || served != c.Name || !reflect.DeepEqual(callees, want) || caller.calls.Load() != 3 {
		t.Fatalf("first refused: served by %q, callees %v, %d attempts, err %v; want %s after %v, 3 attempts", served, callees, caller.calls.Load(), err, c.Name, want)
	}
	if orders.Load() != 1 {
		t.Fatalf("the policy was asked %d times, want once", orders.Load())
	}

	// b's refusals open its breaker, which never cools down on a frozen
	// clock. Heal it: left to the policy, b is skipped; named first, it is
	// tried and serves.
	refuse(a, false)
	for n := 1; res.State(b.Name) != rmi.BreakerOpen; n++ {
		if n == 10 {
			t.Fatalf("%s's breaker is %s after %d refusals, want open", b.Name, res.State(b.Name), n)
		}
		if _, _, err := call(b); err != nil {
			t.Fatal(err)
		}
	}
	refuse(b, false)
	if _, callees, err := call(); err != nil || len(callees) != 1 || callees[0] == b.Name {
		t.Fatalf("open breaker, left to the policy: callees %v, err %v; want one, not %s", callees, err, b.Name)
	}
	if served, _, err := call(b); err != nil || served != b.Name {
		t.Fatalf("open breaker, named first: served by %q, err %v; want %s", served, err, b.Name)
	}

	empty := rmi.NewStub("Pay", caller, rmi.StaticView())
	if r, err := empty.InvokeVia(context.Background(), []cluster.MemberInfo{c}, "get", func(*wire.Encoder, string) {}); err != nil || r.ServedBy != c.Name {
		t.Fatalf("empty view, first named: served by %q, err %v", r.ServedBy, err)
	}
	if _, err := empty.Invoke(context.Background(), "get", nil); !errors.Is(err, rmi.ErrNoServers) {
		t.Fatalf("empty view, nothing named: err %v, want ErrNoServers", err)
	}
}
