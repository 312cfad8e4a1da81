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
	"slices"
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
	subs     subscriptions
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
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// SetLossRate makes each (message, subscriber) delivery fail independently
// with probability p, modelling lossy multicast.
//
//wls:nolint unreached -- test hook: TestLossyBusStillConverges
func (b *InMemory) SetLossRate(p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lossRate = p
}

// Publish implements Bus. A lossless, undelayed bus delivers to the
// topic's subscriber slice as it read it; loss and delay need their own
// list of targets.
func (b *InMemory) Publish(m Message) {
	b.mu.Lock()
	b.published++
	subs := b.subs.byTopic[m.Topic]
	if b.lossRate == 0 && b.delay == 0 {
		b.mu.Unlock()
		for _, s := range subs {
			s.fn(m)
		}
		return
	}
	var targets []func(Message)
	for _, s := range subs {
		if b.lossRate > 0 && b.rng.Float64() < b.lossRate {
			b.dropped++
			continue
		}
		targets = append(targets, s.fn)
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
	return b.subs.subscribe(&b.mu, topic, fn)
}

// subscriptions holds each topic's subscribers in subscription order, so
// a lossy bus's seed drops the same deliveries on every run. A topic's
// slice is never written in place, so a publisher ranges over the slice it
// read under its bus's lock with no copy and no lock held. The bus's
// mutex guards it.
type subscriptions struct {
	byTopic map[string][]subscriber
	nextID  int64
}

type subscriber struct {
	id int64
	fn func(Message)
}

// subscribe adds fn to topic under mu and returns the func that removes it.
func (s *subscriptions) subscribe(mu *sync.Mutex, topic string, fn func(Message)) (cancel func()) {
	mu.Lock()
	defer mu.Unlock()
	if s.byTopic == nil {
		s.byTopic = make(map[string][]subscriber)
	}
	s.nextID++
	id, old := s.nextID, s.byTopic[topic]
	s.byTopic[topic] = append(old[:len(old):len(old)], subscriber{id, fn})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		subs := slices.DeleteFunc(slices.Clone(s.byTopic[topic]), func(x subscriber) bool { return x.id == id })
		if len(subs) == 0 {
			delete(s.byTopic, topic)
		} else {
			s.byTopic[topic] = subs
		}
	}
}

// Stats reports (published messages, dropped deliveries).
//
//wls:nolint unreached -- test hook: TestJoinConvergesWithoutAdvance
func (b *InMemory) Stats() (published, dropped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.dropped
}

// Subscribers reports the number of live subscriptions for a topic.
//
//wls:nolint unreached -- test hook: TestStartStopRace
func (b *InMemory) Subscribers(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs.byTopic[topic])
}
