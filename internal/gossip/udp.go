package gossip

import (
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

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
	self netip.AddrPort // the listen address, never a peer

	// peers is replaced whole under mu, so Publish reads it without a
	// lock or a copy.
	peers atomic.Pointer[[]netip.AddrPort]

	mu     sync.Mutex
	subs   subscriptions
	closed bool

	// sendMu guards out, the buffer every datagram is encoded into.
	sendMu sync.Mutex
	out    *wire.Encoder

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
	b := &UDPBus{conn: conn, self: addrPort(conn.LocalAddr().(*net.UDPAddr)), out: wire.NewEncoder(256)}
	b.peers.Store(new([]netip.AddrPort))
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

// AddPeer adds a destination for future announcements. The bus's own
// address is no peer: its subscribers hear its announcements directly.
func (b *UDPBus) AddPeer(addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	ap := addrPort(uaddr)
	b.mu.Lock()
	defer b.mu.Unlock()
	old := *b.peers.Load()
	if ap == b.self || slices.Contains(old, ap) {
		return nil
	}
	peers := append(slices.Clip(old), ap)
	b.peers.Store(&peers)
	return nil
}

// addrPort is a's address as WriteToUDPAddrPort takes it: an IPv4 address
// unmapped, or an IPv4 socket refuses it.
func addrPort(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
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

func decodeGossip(raw []byte) (Message, error) {
	d := wire.NewDecoder(raw)
	m := Message{Topic: d.String(), From: d.String(), Payload: d.Bytes()}
	return m, d.Err()
}

// Publish implements Bus: local subscribers are delivered synchronously
// (same contract as InMemory); remote peers get a datagram each.
func (b *UDPBus) Publish(m Message) {
	b.deliverLocal(m)
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return
	}
	b.sendMu.Lock()
	defer b.sendMu.Unlock()
	b.out.Reset()
	b.out.String(m.Topic)
	b.out.String(m.From)
	b.out.Bytes2(m.Payload)
	for _, p := range *b.peers.Load() {
		_, _ = b.conn.WriteToUDPAddrPort(b.out.Bytes(), p) // best-effort, like multicast
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
