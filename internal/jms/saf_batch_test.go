package jms

import (
	"fmt"
	"testing"
	"time"

	"wls/internal/simtest"
)

// TestSAFBatchDrainGroupsBacklog pins the batched drain path: a backlog
// that accumulated during an outage is flushed in batched deliver calls —
// one RPC for the group, the way the transport's loopyWriter groups frames —
// while delivery stays exactly-once and in order. White-box via the
// remote's per-service request counter: 20 messages must cross in far
// fewer than 20 RPCs.
func TestSAFBatchDrainGroupsBacklog(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	remote := NewBroker("server-2", nil, f.Servers[1].Metrics)
	f.Servers[1].Registry.Register(remote.RMIService())
	f.Settle(2)

	local := NewBroker("server-1", nil, f.Servers[0].Metrics)
	lq := local.Queue("buffer")
	fw := NewForwarder(lq, f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr(), "dst", f.Clock, 100*time.Millisecond)
	fw.Start()
	defer fw.Stop()

	const n = 20
	f.Net.SetPartitioned(f.Servers[0].Endpoint.Addr(), f.Servers[1].Endpoint.Addr(), true)
	for i := 0; i < n; i++ {
		if _, err := lq.Send(Message{Body: []byte(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	f.Settle(10)

	jmsRequests := f.Servers[1].Metrics.Counter("rmi.requests." + ServiceName)
	before := jmsRequests.Value()

	f.Net.SetPartitioned(f.Servers[0].Endpoint.Addr(), f.Servers[1].Endpoint.Addr(), false)
	// The forwarder counts a message once the remote enqueue has returned,
	// so the counter may trail the queue by a moment: wait for both.
	forwarded := f.Servers[0].Metrics.Counter("jms.saf_forwarded")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (remote.Queue("dst").Len() < n || forwarded.Value() < n) {
		f.Settle(4)
		time.Sleep(2 * time.Millisecond)
	}
	if got := remote.Queue("dst").Len(); got != n {
		t.Fatalf("delivered %d of %d after heal", got, n)
	}
	for i := 0; i < n; i++ {
		m, err := remote.Queue("dst").Receive()
		if err != nil || string(m.Body) != fmt.Sprintf("m%d", i) {
			t.Fatalf("order broken at %d: %q err=%v", i, m.Body, err)
		}
	}
	if rpcs := jmsRequests.Value() - before; rpcs >= n/2 {
		t.Fatalf("backlog of %d crossed in %d jms RPCs; expected a batched flush", n, rpcs)
	}
	if fwd := forwarded.Value(); fwd != n {
		t.Fatalf("saf_forwarded = %d, want %d", fwd, n)
	}
}
