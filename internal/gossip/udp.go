package gossip

import (
	"net"
	"sync"

	"wls/internal/wire"
)

// UDPBus is the cross-process implementation of Bus: announcements are
// datagrams sent point-to-point to a static peer list (the "unicast
// cluster messaging" configuration real deployments use where IP multicast
// is unavailable). Like multicast, delivery is best-effort: datagrams may
// be lost, which the consumers (membership, cache flush) already tolerate
// by design.
type UDPBus struct {
	conn *net.UDPConn

	mu     sync.Mutex
	peers  []*net.UDPAddr
	subs   subscriptions
	closed bool

	wg sync.WaitGroup
}

// NewUDP listens for announcements on listenAddr ("127.0.0.1:0" picks a
// port) and publishes to the given peers. Peers may be added later with
// AddPeer; the local process always receives its own announcements
// directly.
//
//wls:nolint unreached -- item 7: wlsd -join announces over it across processes
func NewUDP(listenAddr string, peers ...string) (*UDPBus, error) {
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	b := &UDPBus{conn: conn}
	for _, p := range peers {
		if err := b.AddPeer(p); err != nil {
			conn.Close()
			return nil, err
		}
	}
	b.wg.Add(1)
	go b.readLoop()
	return b, nil
}

// Addr returns the bus's listen address (give it to peers).
func (b *UDPBus) Addr() string { return b.conn.LocalAddr().String() }

// AddPeer adds a destination for future announcements.
func (b *UDPBus) AddPeer(addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range b.peers {
		if p.String() == uaddr.String() {
			return nil
		}
	}
	b.peers = append(b.peers, uaddr)
	return nil
}

// Close stops the bus.
func (b *UDPBus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	err := b.conn.Close()
	b.wg.Wait()
	return err
}

func encodeGossip(m Message) []byte {
	e := wire.NewEncoder(64 + len(m.Payload))
	e.String(m.Topic)
	e.String(m.From)
	e.Bytes2(m.Payload)
	return e.Bytes()
}

func decodeGossip(raw []byte) (Message, error) {
	d := wire.NewDecoder(raw)
	m := Message{Topic: d.String(), From: d.String(), Payload: d.Bytes()}
	return m, d.Err()
}

// Publish implements Bus: local subscribers are delivered synchronously
// (same contract as InMemory); remote peers get a datagram each.
func (b *UDPBus) Publish(m Message) {
	b.deliverLocal(m)
	raw := encodeGossip(m)
	b.mu.Lock()
	peers := append([]*net.UDPAddr{}, b.peers...)
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return
	}
	self := b.Addr()
	for _, p := range peers {
		if p.String() == self {
			continue // local delivery already happened
		}
		_, _ = b.conn.WriteToUDP(raw, p) // best-effort, like multicast
	}
}

func (b *UDPBus) deliverLocal(m Message) {
	b.mu.Lock()
	subs := b.subs.byTopic[m.Topic]
	b.mu.Unlock()
	for _, s := range subs {
		s.fn(m)
	}
}

// Subscribe implements Bus.
func (b *UDPBus) Subscribe(topic string, fn func(Message)) (cancel func()) {
	return b.subs.subscribe(&b.mu, topic, fn)
}

func (b *UDPBus) readLoop() {
	defer b.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := b.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		m, derr := decodeGossip(buf[:n])
		if derr != nil {
			continue // corrupt datagram: drop, like a lost multicast frame
		}
		b.deliverLocal(m)
	}
}
