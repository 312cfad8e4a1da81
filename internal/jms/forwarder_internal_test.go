package jms

import (
	"testing"
	"time"

	"wls/internal/simtest"
)

// TestForwarderStopQuiescesInFlightDrain pins the SAF stop contract:
// "buffered messages stay in the local queue". A drain goroutine that was
// already running when Stop landed used to keep forwarding until the
// queue emptied — Stop cancelled only the *next* timer, and the drain
// loop never looked at the stopped flag. The drain now carries the epoch
// it was started under and exits before its next message once Stop (or a
// new Start) bumps it. White-box on purpose: the race window between the
// timer firing and Stop returning can't be opened deterministically from
// outside, so the test plays the in-flight drain itself.
func TestForwarderStopQuiescesInFlightDrain(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	remote := NewBroker("server-2", nil, f.Servers[1].Metrics)
	f.Servers[1].Registry.Register(remote.RMIService())
	f.Settle(2)

	local := NewBroker("server-1", nil, f.Servers[0].Metrics)
	lq := local.Queue("buffer")
	for i := 0; i < 5; i++ {
		if _, err := lq.Send(Message{Body: []byte{byte('a' + i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	fw := NewForwarder(lq, f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr(), "dst", f.Clock, 100*time.Millisecond)
	fw.Start()
	g := fw.drains.Start(fw.interval) // started: only reports the epoch
	fw.Stop()

	// The in-flight drain: started under the pre-Stop epoch, scheduled
	// onto the CPU only after Stop returned.
	fw.drain(g)
	f.Settle(4)

	if got := lq.Len(); got != 5 {
		t.Fatalf("in-flight drain forwarded after Stop: %d of 5 messages still buffered", got)
	}
	if got := remote.Queue("dst").Len(); got != 0 {
		t.Fatalf("%d message(s) reached the remote after Stop", got)
	}

	// A fresh Start drains normally: quiescence must not wedge the agent.
	fw.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && remote.Queue("dst").Len() < 5 {
		f.Settle(4)
		time.Sleep(2 * time.Millisecond)
	}
	if got := remote.Queue("dst").Len(); got != 5 {
		t.Fatalf("restart after Stop only delivered %d of 5", got)
	}
	fw.Stop()
}

// TestNextMsgIDFormatAndAllocs pins the message-ID format
// (server/queue/mN — consumers parse nothing, but logs and dedup keys
// rely on uniqueness and stability) and keeps the generator off
// fmt.Sprintf: building the ID is on the broker's publish path, and the
// concat form costs at most two allocations (digits + join).
func TestNextMsgIDFormatAndAllocs(t *testing.T) {
	b := NewBroker("server-9", nil, nil)
	if got, want := b.nextMsgID("orders"), "server-9/orders/m1"; got != want {
		t.Fatalf("nextMsgID = %q, want %q", got, want)
	}
	if got, want := b.nextMsgID("orders"), "server-9/orders/m2"; got != want {
		t.Fatalf("nextMsgID = %q, want %q", got, want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = b.nextMsgID("orders")
	})
	if allocs > 2 {
		t.Fatalf("nextMsgID allocates %.1f times per call, want <= 2", allocs)
	}
}
