package jms

import (
	"sort"
	"sync"
)

// Topic is a publish/subscribe destination. Each subscriber gets its own
// backing queue (durable if the broker has a store), so a slow or
// crashed subscriber never loses messages and never delays the others —
// the same store-and-forward discipline §4 applies between clusters,
// applied between producers and consumers.
type Topic struct {
	b    *Broker
	name string

	// mu guards the subscriber table; Publish resolves durable
	// subscriptions through Broker.Queue while holding it.
	//
	//wls:lockorder jms.Topic.mu<jms.Broker.mu
	mu   sync.Mutex
	subs map[string]*Queue
}

// Topic returns (creating on first use) a named topic, recovering durable
// subscriptions from the store.
//
//wls:nolint unreached -- library-only: §4, TestTopicFanOut
func (b *Broker) Topic(name string) *Topic {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.topics == nil {
		b.topics = make(map[string]*Topic)
	}
	t, ok := b.topics[name]
	if !ok {
		t = &Topic{b: b, name: name, subs: make(map[string]*Queue)}
		// Recover durable subscriptions: their backing queues live in
		// spaces named jms.queue.topic.<topic>.<subscriber>.
		if b.st != nil {
			prefix := "jms.queue." + t.subQueuePrefix()
			for _, space := range b.st.Spaces() {
				if len(space) > len(prefix) && space[:len(prefix)] == prefix {
					sub := space[len(prefix):]
					t.subs[sub] = nil // created lazily below via Subscribe
				}
			}
		}
		b.topics[name] = t
	}
	return t
}

func (t *Topic) subQueuePrefix() string { return "topic." + t.name + "." }

// Subscribe registers (or re-attaches) a named subscription and returns
// its queue. With a store-backed broker the subscription is durable:
// messages published while the subscriber is away are waiting on
// re-attach.
func (t *Topic) Subscribe(name string) *Queue {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.subs[name]; q != nil {
		return q
	}
	q := t.b.Queue(t.subQueuePrefix() + name)
	t.subs[name] = q
	return q
}

// Unsubscribe removes a subscription; its backlog is discarded.
func (t *Topic) Unsubscribe(name string) {
	t.mu.Lock()
	q := t.subs[name]
	delete(t.subs, name)
	t.mu.Unlock()
	if q == nil {
		return
	}
	// Drain and ack everything (clears the persistent backlog too).
	for {
		m, err := q.Receive()
		if err != nil {
			break
		}
		_ = q.Ack(m.ID)
	}
}

// Subscribers lists the current subscription names, sorted.
func (t *Topic) Subscribers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.subs))
	for s := range t.subs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Publish delivers a copy of m to every current subscription. It assigns
// the message ID if empty and returns it.
func (t *Topic) Publish(m Message) (string, error) {
	if m.ID == "" {
		m.ID = t.b.nextMsgID("topic." + t.name)
	}
	t.mu.Lock()
	var queues []*Queue
	for name, q := range t.subs {
		if q == nil {
			q = t.b.Queue(t.subQueuePrefix() + name)
			t.subs[name] = q
		}
		queues = append(queues, q)
	}
	t.mu.Unlock()
	for i, q := range queues {
		// Each subscription needs a distinct message identity, or the
		// queues' dedup would collapse them across subscribers sharing
		// one broker.
		copyMsg := m
		copyMsg.ID = m.ID + "#" + q.Name()
		_ = i
		if _, err := q.Send(copyMsg); err != nil {
			return "", err
		}
	}
	t.b.topicPublished.Inc()
	return m.ID, nil
}
