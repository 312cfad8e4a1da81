// Package gossip implements the lightweight announcement bus that stands in
// for WebLogic's IP-multicast service advertisement (§3.1: "the members of
// the cluster disseminate this information using a lightweight multicast
// protocol") and for the bean-level cache-flush signals of §3.3.
//
// The bus is best-effort by design — exactly like multicast on a LAN — and
// the in-memory implementation can be configured with a loss rate and a
// delivery delay so tests and benchmarks can reproduce the staleness
// behaviours the paper attributes to it. Consumers that need reliability
// layer sequence numbers or periodic re-announcement on top, as the cluster
// membership code does.
package gossip

import (
	"math/rand"
	"sync"
	"time"

	"wls/internal/vclock"
)

// Message is an announcement on the bus.
type Message struct {
	// Topic partitions announcements (e.g. "cluster/services",
	// "cache/flush/OrderBean").
	Topic string
	// From identifies the announcing server.
	From string
	// Payload is an opaque body, typically wire-encoded.
	Payload []byte
}

// Bus is the dissemination interface. Implementations must be safe for
// concurrent use. Delivery is best-effort and unordered across senders.
type Bus interface {
	// Publish broadcasts m to every current subscriber, including ones on
	// the publishing server. With no configured delay, delivery happens
	// synchronously on the publisher's goroutine — subscriber callbacks
	// must therefore be fast and must never block. Synchronous delivery is
	// what keeps virtual-time simulations deterministic: a heartbeat
	// published at virtual time T is visible to every peer at T. A callback
	// may itself Publish (membership answers a heard join from inside the
	// delivery that carried it), so implementations hold no lock of their
	// own while they call subscribers.
	Publish(m Message)
	// Subscribe registers fn for every message whose topic matches topic
	// exactly. It returns a cancel function.
	Subscribe(topic string, fn func(Message)) (cancel func())
}

// InMemory is a process-local Bus with configurable loss and delay.
type InMemory struct {
	clock vclock.Clock

	mu       sync.Mutex
	subs     map[string]map[int64]func(Message)
	nextID   int64
	lossRate float64
	delay    time.Duration
	rng      *rand.Rand

	published int64
	dropped   int64
}

// NewInMemory returns a lossless, zero-delay bus on the given clock.
func NewInMemory(clock vclock.Clock, seed int64) *InMemory {
	return &InMemory{
		clock: clock,
		subs:  make(map[string]map[int64]func(Message)),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// SetLossRate makes each (message, subscriber) delivery fail independently
// with probability p, modelling lossy multicast.
func (b *InMemory) SetLossRate(p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lossRate = p
}

// SetDelay delays every delivery by d on the bus clock.
func (b *InMemory) SetDelay(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.delay = d
}

// Publish implements Bus.
func (b *InMemory) Publish(m Message) {
	b.mu.Lock()
	b.published++
	var targets []func(Message)
	for _, fn := range b.subs[m.Topic] {
		if b.lossRate > 0 && b.rng.Float64() < b.lossRate {
			b.dropped++
			continue
		}
		targets = append(targets, fn)
	}
	delay := b.delay
	clock := b.clock
	b.mu.Unlock()

	deliver := func() {
		for _, fn := range targets {
			fn(m)
		}
	}
	if delay > 0 {
		clock.AfterFunc(delay, deliver)
	} else {
		deliver()
	}
}

// Subscribe implements Bus.
func (b *InMemory) Subscribe(topic string, fn func(Message)) (cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	if b.subs[topic] == nil {
		b.subs[topic] = make(map[int64]func(Message))
	}
	b.subs[topic][id] = fn
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		delete(b.subs[topic], id)
		if len(b.subs[topic]) == 0 {
			delete(b.subs, topic)
		}
	}
}

// Stats reports (published messages, dropped deliveries).
func (b *InMemory) Stats() (published, dropped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.dropped
}

// Subscribers reports the number of live subscriptions for a topic.
func (b *InMemory) Subscribers(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs[topic])
}
