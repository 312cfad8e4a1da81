//go:build !race

package gossip

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"net"
	"testing"
)

// TestGateUDPPublishAllocs: a steady announcement to two peers allocates
// nothing. The bus drops its own address when a peer list names it,
// reads its peers without copying them, and encodes each datagram into
// one reused buffer. The peers are bare sockets, so no reader's decode is
// counted.
func TestGateUDPPublishAllocs(t *testing.T) {
	a, err := NewUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if err := a.AddPeer(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		if err := a.AddPeer(peer.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	m := Message{Topic: "wls.heartbeat", From: "server-1", Payload: []byte("beat")}
	a.Publish(m)
	if n := testing.AllocsPerRun(200, func() { a.Publish(m) }); n != 0 {
		t.Fatalf("Publish to two peers allocates %.1f times, want 0", n)
	}
}
