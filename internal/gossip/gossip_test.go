package gossip

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/vclock"
)

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestPublishSubscribe(t *testing.T) {
	b := NewInMemory(vclock.System, 1)
	var got atomic.Value
	b.Subscribe("t", func(m Message) { got.Store(string(m.Payload) + "/" + m.From) })
	b.Publish(Message{Topic: "t", From: "s1", Payload: []byte("hello")})
	waitFor(t, func() bool { return got.Load() != nil }, "message not delivered")
	if got.Load().(string) != "hello/s1" {
		t.Fatalf("got %v", got.Load())
	}
}

func TestTopicIsolation(t *testing.T) {
	b := NewInMemory(vclock.System, 1)
	var a, c atomic.Int64
	b.Subscribe("a", func(Message) { a.Add(1) })
	b.Subscribe("c", func(Message) { c.Add(1) })
	b.Publish(Message{Topic: "a"})
	waitFor(t, func() bool { return a.Load() == 1 }, "topic a not delivered")
	if c.Load() != 0 {
		t.Fatal("topic c received a's message")
	}
}

func TestMultipleSubscribersAllReceive(t *testing.T) {
	b := NewInMemory(vclock.System, 1)
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		b.Subscribe("t", func(Message) { n.Add(1) })
	}
	b.Publish(Message{Topic: "t"})
	waitFor(t, func() bool { return n.Load() == 10 }, "not all subscribers received")
}

func TestCancelStopsDelivery(t *testing.T) {
	b := NewInMemory(vclock.System, 1)
	var n atomic.Int64
	cancel := b.Subscribe("t", func(Message) { n.Add(1) })
	b.Publish(Message{Topic: "t"})
	waitFor(t, func() bool { return n.Load() == 1 }, "first message not delivered")
	cancel()
	if b.Subscribers("t") != 0 {
		t.Fatal("subscription not removed")
	}
	b.Publish(Message{Topic: "t"})
	time.Sleep(20 * time.Millisecond)
	if n.Load() != 1 {
		t.Fatalf("cancelled subscriber received message, n=%d", n.Load())
	}
}

func TestLossRateDropsSome(t *testing.T) {
	b := NewInMemory(vclock.System, 99)
	var n atomic.Int64
	b.Subscribe("t", func(Message) { n.Add(1) })
	b.SetLossRate(0.5)
	for i := 0; i < 200; i++ {
		b.Publish(Message{Topic: "t"})
	}
	waitFor(t, func() bool {
		v := n.Load()
		return v > 40 && v < 160
	}, "loss rate did not land in expected band")
	pub, drop := b.Stats()
	if pub != 200 || drop == 0 {
		t.Fatalf("stats pub=%d drop=%d", pub, drop)
	}
}

func TestDelayOnVirtualClock(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b := NewInMemory(clk, 1)
	b.SetDelay(10 * time.Millisecond)
	var n atomic.Int64
	b.Subscribe("t", func(Message) { n.Add(1) })
	b.Publish(Message{Topic: "t"})
	time.Sleep(20 * time.Millisecond) // real time passes, virtual does not
	if n.Load() != 0 {
		t.Fatal("delayed message delivered before clock advance")
	}
	clk.Advance(10 * time.Millisecond)
	waitFor(t, func() bool { return n.Load() == 1 }, "message not delivered after advance")
}

func TestPublishDeliversInlineWithoutDelay(t *testing.T) {
	b := NewInMemory(vclock.System, 1)
	n := 0 // no atomics needed: delivery is synchronous on this goroutine
	b.Subscribe("t", func(Message) { n++ })
	for i := 0; i < 100; i++ {
		b.Publish(Message{Topic: "t"})
	}
	if n != 100 {
		t.Fatalf("inline delivery: n=%d, want 100", n)
	}
}

func TestPublishFromSubscriberDoesNotDeadlock(t *testing.T) {
	b := NewInMemory(vclock.System, 1)
	var hops atomic.Int64
	b.Subscribe("a", func(Message) {
		hops.Add(1)
		b.Publish(Message{Topic: "b"})
	})
	b.Subscribe("b", func(Message) { hops.Add(1) })
	done := make(chan struct{})
	go func() {
		b.Publish(Message{Topic: "a"})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("re-entrant Publish deadlocked")
	}
	if hops.Load() != 2 {
		t.Fatalf("hops = %d, want 2", hops.Load())
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := NewInMemory(vclock.System, 1)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				cancel := b.Subscribe("t", func(Message) { n.Add(1) })
				b.Publish(Message{Topic: "t"})
				cancel()
			}
		}()
	}
	wg.Wait()
	// No assertion on count (racy by design); the test is that -race is
	// clean and nothing deadlocks.
}

// Subscribers are called in subscription order, so two lossy buses with
// the same seed and the same subscriptions drop the same deliveries; a
// cancelled subscriber, here one from the middle of the list, gets none.
func TestLossyBusReplaysPerSeed(t *testing.T) {
	run := func() []string {
		b := NewInMemory(vclock.System, 42)
		b.SetLossRate(0.5)
		var log []string // delivery is synchronous on this goroutine
		for i := 0; i < 8; i++ {
			cancel := b.Subscribe("t", func(m Message) { log = append(log, fmt.Sprintf("%d<-%s", i, m.From)) })
			if i == 3 {
				cancel()
			}
		}
		for j := 0; j < 50; j++ {
			b.Publish(Message{Topic: "t", From: fmt.Sprint(j)})
		}
		return log
	}
	a, b := run(), run()
	if !slices.Equal(a, b) {
		t.Fatalf("same seed, different deliveries:\n%v\n%v", a, b)
	}
	for _, d := range a {
		if strings.HasPrefix(d, "3<-") {
			t.Fatalf("cancelled subscriber received %s", d)
		}
	}
	if len(a) == 0 || len(a) == 7*50 {
		t.Fatalf("%d of %d deliveries made at 50%% loss", len(a), 7*50)
	}
}
