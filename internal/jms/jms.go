// Package jms implements the messaging substrate the paper leans on in
// §3.4 (message queues as singleton services, partitioned destinations),
// §4 (store-and-forward messaging between clusters, with "simple ACKing
// protocols that are appropriate even for loosely-coupled systems"), and
// §5.1 ("specialized file-based message stores are in fact common" — the
// broker persists messages in the server's middle-tier store, and
// transactional consume+state-update against the same store commits in
// one phase).
//
// Two delivery styles, as the paper distinguishes them:
//
//   - Client/server messaging: producers and consumers interact with a
//     central queue using (transactional) RPCs.
//   - Store-and-forward: a Forwarder buffers messages in a local queue and
//     drains them to a remote destination when it is reachable, retrying
//     with backoff and deduplicating at the receiver so delivery is
//     exactly-once despite retries.
package jms

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wls/internal/kv"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/trace"
	"wls/internal/tuple"
	"wls/internal/tx"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// Message is one JMS message.
type Message struct {
	// ID is globally unique (assigned at send) and is the deduplication
	// key for store-and-forward redelivery.
	ID string
	// Key optionally carries the partitioning key (producer, consumer or
	// user identity — §3.4).
	Key string
	// Body is the payload.
	Body []byte
}

func encodeMessage(m Message) []byte {
	e := wire.NewEncoder(64 + len(m.Body))
	e.String(m.ID)
	e.String(m.Key)
	e.Bytes2(m.Body)
	return e.Bytes()
}

func decodeMessage(b []byte) (Message, error) {
	d := wire.NewDecoder(b)
	m := Message{ID: d.String(), Key: d.String(), Body: d.Bytes()}
	return m, d.Err()
}

// ErrEmpty is returned by Receive on an empty queue.
var ErrEmpty = errors.New("jms: queue empty")

// Broker hosts the queues of one server. With a store, messages are
// durable; without one they are in-memory (lost with the server, like the
// in-memory conversations of §4).
type Broker struct {
	server string
	st     *tuple.Store // nil = non-persistent
	reg    *metrics.Registry

	sent, received, dedupDrops, topicPublished *metrics.Counter

	// mu guards the queue/topic tables. newQueue reads the store while it
	// is held, so it sits above that store in the hierarchy.
	//
	//wls:lockorder jms.Broker.mu<tuple.Store.mu
	mu     sync.Mutex
	queues map[string]*Queue
	topics map[string]*Topic
	seq    uint64
}

// NewBroker creates a broker. st may be nil for non-persistent operation.
func NewBroker(server string, st *tuple.Store, reg *metrics.Registry) *Broker {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Broker{
		server: server, st: st, reg: reg,
		sent:           reg.Counter("jms.sent"),
		received:       reg.Counter("jms.received"),
		dedupDrops:     reg.Counter("jms.dedup_drops"),
		topicPublished: reg.Counter("jms.topic_published"),
		queues:         make(map[string]*Queue),
	}
}

// Queue returns (creating on first use) a named queue, recovering any
// persistent backlog from the store.
func (b *Broker) Queue(name string) *Queue {
	b.mu.Lock()
	defer b.mu.Unlock()
	q, ok := b.queues[name]
	if !ok {
		q = newQueue(b, name)
		b.queues[name] = q
	}
	return q
}

func (b *Broker) nextMsgID(queue string) string {
	b.mu.Lock()
	b.seq++
	n := b.seq
	b.mu.Unlock()
	return b.server + "/" + queue + "/m" + strconv.FormatUint(n, 10)
}

// Queue is one FIFO destination.
type Queue struct {
	b     *Broker
	name  string
	space string // the store space holding the queue's durable messages

	mu       sync.Mutex
	order    []string           // pending message ids, FIFO
	pending  map[string]Message // id → message
	inflight map[string]Message // received but not yet acked
}

func newQueue(b *Broker, name string) *Queue {
	q := &Queue{
		b:        b,
		name:     name,
		space:    "jms.queue." + name,
		pending:  make(map[string]Message),
		inflight: make(map[string]Message),
	}
	if b.st != nil {
		// Recover the persistent backlog (including messages that were
		// in flight at crash: un-acked means un-consumed).
		b.st.Scan(q.space, "", func(id, raw string) bool {
			if m, err := decodeMessage([]byte(raw)); err == nil {
				q.pending[id] = m
				q.order = append(q.order, id)
			}
			return true
		})
		sort.Strings(q.order) // ids embed the sequence; sort restores FIFO per producer
	}
	return q
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Send enqueues a message immediately (auto-commit). It assigns and
// returns the message ID when m.ID is empty.
func (q *Queue) Send(m Message) (string, error) {
	if m.ID == "" {
		m.ID = q.b.nextMsgID(q.name)
	}
	if q.b.st != nil {
		if err := q.b.st.Put(q.space, m.ID, encodeMessage(m)); err != nil {
			return "", err
		}
	}
	q.enqueue(m)
	return m.ID, nil
}

// enqueue makes a message that is already durable (or needs no
// durability) receivable; a message already pending or in flight is not
// enqueued twice.
func (q *Queue) enqueue(m Message) {
	q.mu.Lock()
	if _, dup := q.pending[m.ID]; !dup {
		if _, infl := q.inflight[m.ID]; !infl {
			q.pending[m.ID] = m
			q.order = append(q.order, m.ID)
		}
	}
	q.mu.Unlock()
	q.b.sent.Inc()
}

// Receive dequeues the oldest message. The message stays in flight until
// Ack (crash before ack → redelivery after recovery).
func (q *Queue) Receive() (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.order) > 0 {
		id := q.order[0]
		q.order = q.order[1:]
		m, ok := q.pending[id]
		if !ok {
			continue
		}
		delete(q.pending, id)
		q.inflight[id] = m
		q.b.received.Inc()
		return m, nil
	}
	return Message{}, ErrEmpty
}

// Ack finalizes consumption of a received message.
func (q *Queue) Ack(id string) error {
	q.mu.Lock()
	_, ok := q.inflight[id]
	delete(q.inflight, id)
	q.mu.Unlock()
	if !ok {
		return fmt.Errorf("jms: ack of unknown message %s", id)
	}
	if q.b.st != nil {
		return q.b.st.Delete(q.space, id)
	}
	return nil
}

// Nack returns a received message to the queue (front).
func (q *Queue) Nack(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	m, ok := q.inflight[id]
	if !ok {
		return
	}
	delete(q.inflight, id)
	q.pending[id] = m
	q.order = append([]string{id}, q.order...)
}

// Len reports pending (not in-flight) messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// ---------------------------------------------------------------------------
// Transactional send and receive

// txSend is the tx.Resource staging a send until commit.
type txSend struct {
	q *Queue
	m Message
	// sess stages the durable write so prepare is a durable vote.
	sess *tuple.Session
}

// SendTx stages a message to be enqueued when txn commits. The durable
// write participates in the transaction through the broker's store, so a
// transaction that also updates other spaces of the same store commits in
// one phase (§5.1's co-location argument).
func (q *Queue) SendTx(txn *tx.Tx, m Message) (string, error) {
	if m.ID == "" {
		m.ID = q.b.nextMsgID(q.name)
	}
	r := &txSend{q: q, m: m}
	if q.b.st != nil {
		r.sess = q.b.st.Session()
		r.sess.Put(q.space, m.ID, encodeMessage(m))
	}
	if err := txn.Enlist("jms.send:"+m.ID, r); err != nil {
		return "", err
	}
	return m.ID, nil
}

// Prepare implements tx.Resource.
func (r *txSend) Prepare(txID string) error {
	if r.sess != nil {
		return r.sess.Prepare(txID)
	}
	return nil
}

// Commit implements tx.Resource.
func (r *txSend) Commit(txID string) error {
	if r.sess != nil {
		if err := r.sess.Commit(txID); err != nil {
			return err
		}
	}
	r.q.enqueue(r.m)
	return nil
}

// Rollback implements tx.Resource.
func (r *txSend) Rollback(txID string) error {
	if r.sess != nil {
		return r.sess.Rollback(txID)
	}
	return nil
}

// txReceive acks on commit, returns the message to the queue on rollback.
type txReceive struct {
	q *Queue
	m Message
}

// ReceiveTx dequeues a message whose consumption is decided by txn: commit
// acks it, rollback returns it to the queue.
func (q *Queue) ReceiveTx(txn *tx.Tx) (Message, error) {
	m, err := q.Receive()
	if err != nil {
		return Message{}, err
	}
	r := &txReceive{q: q, m: m}
	if err := txn.Enlist("jms.recv:"+m.ID, r); err != nil {
		q.Nack(m.ID)
		return Message{}, err
	}
	return m, nil
}

// Prepare implements tx.Resource.
func (r *txReceive) Prepare(string) error { return nil }

// Commit implements tx.Resource.
func (r *txReceive) Commit(string) error { return r.q.Ack(r.m.ID) }

// Rollback implements tx.Resource.
func (r *txReceive) Rollback(string) error {
	r.q.Nack(r.m.ID)
	return nil
}

// ---------------------------------------------------------------------------
// Remote delivery surface

// ServiceName is the RMI service brokers expose for remote producers and
// store-and-forward agents.
const ServiceName = "wls.jms"

// dedupSpace holds one mark per message ID the SAF receiving end accepted.
const dedupSpace = "jms.dedup"

// RMIService exposes the broker. The "deliver" method is the SAF receiving
// end: it deduplicates by message ID (persistently when a store is
// attached), making redelivery after lost ACKs harmless.
func (b *Broker) RMIService() *rmi.Service {
	seen := make(map[string]bool)
	var seenMu sync.Mutex
	if b.st != nil {
		b.st.Scan(dedupSpace, "", func(id, _ string) bool {
			seen[id] = true
			return true
		})
	}
	// deliverOne deduplicates and enqueues one SAF message; reports whether
	// the message was accepted (false = dedup drop).
	deliverOne := func(queue string, m Message) (bool, error) {
		seenMu.Lock()
		dup := seen[m.ID]
		if !dup {
			seen[m.ID] = true
		}
		seenMu.Unlock()
		if dup {
			b.dedupDrops.Inc()
			return false, nil
		}
		q := b.Queue(queue)
		if b.st != nil {
			// The dedup mark and the message land in one batch: a crash
			// leaves both or neither, never a mark that turns the
			// sender's redelivery into a dropped "duplicate".
			err := b.st.Apply([]kv.Op{
				{Kind: kv.OpPut, Space: dedupSpace, Key: m.ID},
				{Kind: kv.OpPut, Space: q.space, Key: m.ID, Value: string(encodeMessage(m))},
			})
			if err != nil {
				// Not remembered durably: do not remember it at all, and
				// fail the delivery so the sender keeps the message and
				// redelivers it.
				seenMu.Lock()
				delete(seen, m.ID)
				seenMu.Unlock()
				return false, err
			}
		}
		q.enqueue(m)
		return true, nil
	}
	return &rmi.Service{
		Name:   ServiceName,
		System: true,
		Methods: map[string]rmi.MethodSpec{
			// send: plain remote produce (client/server messaging).
			"send": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				queue := d.String()
				m, err := decodeMessageTail(d)
				if err != nil {
					return nil, err
				}
				id, err := b.Queue(queue).Send(m)
				if err != nil {
					return nil, err
				}
				e := wire.MakeEncoder(32)
				e.String(id)
				return e.Bytes(), nil
			}},
			// deliver: exactly-once SAF delivery of the messages that follow
			// the queue name, until the arguments run out — one, or a drain
			// batch grouped the way the transport's loopyWriter groups frames
			// per connection flush. The ACK is the RPC response; dedup is per
			// message, so a retry that partially landed is still exactly-once
			// (idempotent).
			"deliver": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				queue := d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				n, accepted := 0, 0
				for ; d.Remaining() > 0; n++ {
					m, err := decodeMessageTail(d)
					if err != nil {
						return nil, err
					}
					ok, err := deliverOne(queue, m)
					if err != nil {
						return nil, err
					}
					if ok {
						accepted++
					}
				}
				if sp := trace.FromContext(ctx); sp != nil {
					sp.AnnotateInt("accepted", accepted)
					sp.AnnotateInt("deduped", n-accepted)
				}
				return nil, nil
			}},
			// receive: remote consume (one message, auto-ack).
			"receive": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				queue := d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				m, err := b.Queue(queue).Receive()
				if err != nil {
					return nil, &rmi.AppError{Msg: err.Error()}
				}
				_ = b.Queue(queue).Ack(m.ID)
				return encodeMessage(m), nil
			}},
		},
	}
}

func decodeMessageTail(d *wire.Decoder) (Message, error) {
	m := Message{ID: d.String(), Key: d.String(), Body: d.Bytes()}
	return m, d.Err()
}

// SendRemote produces a message onto a queue hosted at addr.
//
//wls:nolint unreached -- library-only: §4, TestRemoteSendAndReceive
func SendRemote(ctx context.Context, node rmi.Node, addr, queue string, m Message) (string, error) {
	e := wire.NewEncoder(64 + len(m.Body))
	e.String(queue)
	e.String(m.ID)
	e.String(m.Key)
	e.Bytes2(m.Body)
	stub := rmi.NewStub(ServiceName, node, rmi.StaticView(addr))
	res, err := stub.Invoke(ctx, "send", e.Bytes())
	if err != nil {
		return "", err
	}
	d := wire.NewDecoder(res.Body)
	return d.String(), d.Err()
}

// ReceiveRemote consumes one message from a queue hosted at addr.
//
//wls:nolint unreached -- library-only: §4, TestRemoteSendAndReceive
func ReceiveRemote(ctx context.Context, node rmi.Node, addr, queue string) (Message, error) {
	e := wire.NewEncoder(32)
	e.String(queue)
	stub := rmi.NewStub(ServiceName, node, rmi.StaticView(addr))
	res, err := stub.Invoke(ctx, "receive", e.Bytes())
	if err != nil {
		if rmi.IsAppError(err) && strings.Contains(err.Error(), "queue empty") {
			return Message{}, ErrEmpty
		}
		return Message{}, err
	}
	return decodeMessage(res.Body)
}

// ---------------------------------------------------------------------------
// Store-and-forward (§4)

// safBatchMax bounds how many messages one deliver RPC carries.
const safBatchMax = 32

// Forwarder drains a local buffer queue to a remote destination,
// "buffering work to handle temporarily disconnected or overloaded
// systems". A drain groups up to safBatchMax buffered messages into one
// deliver RPC (the per-connection flush batching the transport's
// loopyWriter applies to frames); the response is the ACK; no response →
// retry with backoff; the receiver deduplicates per message.
type Forwarder struct {
	local      *Queue
	remoteQ    string
	interval   time.Duration
	maxBackoff time.Duration
	// stub is built once: the destination is fixed for the agent's life.
	stub *rmi.Stub
	// forwarded/retries are resolved once: metric-name lookups allocate.
	forwarded *metrics.Counter
	retries   *metrics.Counter
	// drains runs drain on its own goroutine: it makes deliver RPCs.
	drains *vclock.Loop
	// backoff is the delay after a failed drain; only drains touch it, and
	// they never overlap.
	backoff time.Duration
}

// NewForwarder creates a SAF agent draining local into remoteQ at
// remoteAddr every interval (with exponential backoff up to 16x while the
// remote is down).
func NewForwarder(local *Queue, node rmi.Node, remoteAddr, remoteQ string, clock vclock.Clock, interval time.Duration) *Forwarder {
	f := &Forwarder{
		local:      local,
		remoteQ:    remoteQ,
		interval:   interval,
		maxBackoff: interval * 16,
		stub:       rmi.NewStub(ServiceName, node, rmi.StaticView(remoteAddr)),
		forwarded:  local.b.reg.Counter("jms.saf_forwarded"),
		retries:    local.b.reg.Counter("jms.saf_retries"),
		backoff:    interval,
	}
	f.drains = vclock.NewLoop(clock, f.drain, true)
	return f
}

// Start begins draining.
func (f *Forwarder) Start() { f.drains.Start(f.interval) }

// Stop halts the agent (buffered messages stay in the local queue). A
// drain in flight exits before its next batch, so after Stop returns at
// most the delivery already on the wire completes.
func (f *Forwarder) Stop() { f.drains.Stop() }

// deliver ships one drain batch in one "deliver" RPC: the queue name, then
// each message in turn. A lightly loaded agent sends batches of one.
func (f *Forwarder) deliver(msgs []Message) error {
	e := wire.AcquireEncoder()
	defer e.Release()
	e.String(f.remoteQ)
	for _, m := range msgs {
		e.String(m.ID)
		e.String(m.Key)
		e.Bytes2(m.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_, err := f.stub.Invoke(ctx, "deliver", e.Bytes())
	cancel()
	return err
}

// drain forwards as many messages as possible while its epoch is live and
// returns when to drain next.
func (f *Forwarder) drain(epoch uint64) time.Duration {
	var msgs []Message
	for f.drains.Current(epoch) {
		msgs = msgs[:0]
		for len(msgs) < safBatchMax {
			m, err := f.local.Receive()
			if err != nil {
				break
			}
			msgs = append(msgs, m)
		}
		if len(msgs) == 0 {
			f.backoff = f.interval
			return f.interval
		}
		err := f.deliver(msgs)
		if err == nil {
			for _, m := range msgs {
				_ = f.local.Ack(m.ID)
				f.forwarded.Inc()
			}
			continue
		}
		// Nack in reverse so the batch returns to the queue front in its
		// original order (Nack prepends).
		for i := len(msgs) - 1; i >= 0; i-- {
			f.local.Nack(msgs[i].ID)
		}
		// No ACK: messages back to the buffer, back off, retry later.
		f.backoff = min(2*f.backoff, f.maxBackoff)
		f.retries.Inc()
		return f.backoff
	}
	return -1
}
