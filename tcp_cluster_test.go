package wls_test

// A three-server cluster on the real TCP fabric, assembled from the
// internal packages the way benchmark/cluster.go assembles its system
// under test (wls.New only builds on netsim): one transport.Listen node per
// server plus one for the proxy plug-in, real-clock in-memory membership,
// replicated sessions. The TCP alloc and wire gates, TestGateRacePoolRecyclingTCP
// and the cookie-elision script share it.

import (
	"strconv"
	"testing"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/partition"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/transport"
	"wls/internal/vclock"
	"wls/internal/webtier"
)

// tcpConfig is what a test may vary; the zero value is the cluster the
// gates measure.
type tcpConfig struct {
	sessions servlet.SessionMode
	// ring places secondaries on the consistent-hash ring, as wlsd and the
	// benchmark do, so a joining server moves some of them.
	ring bool
	// wrapProxy decorates the proxy plug-in's node.
	wrapProxy func(rmi.Node) rmi.Node
}

type tcpServer struct {
	name   string
	tr     *transport.Transport
	member *cluster.Member
	engine *servlet.Engine
}

type tcpCluster struct {
	t       *testing.T
	cfg     tcpConfig
	bus     *gossip.InMemory
	servers []*tcpServer
	proxyTr *transport.Transport
	proxy   *webtier.ProxyPlugin
	// deployed replays handle on a server that joins later.
	deployed map[string]servlet.HandlerFunc
}

// listenTCP opens a loopback transport node that closes with the test.
func listenTCP(t *testing.T) *transport.Transport {
	t.Helper()
	tr, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func newTCPCluster(t *testing.T) *tcpCluster { return newTCPClusterWith(t, tcpConfig{}) }

func newTCPClusterWith(t *testing.T, cfg tcpConfig) *tcpCluster {
	t.Helper()
	c := &tcpCluster{t: t, cfg: cfg, bus: gossip.NewInMemory(vclock.System, 1), deployed: map[string]servlet.HandlerFunc{}}
	for i := 0; i < 3; i++ {
		c.start()
	}
	c.converge()
	c.proxyTr = listenTCP(t)
	var node rmi.Node = c.proxyTr
	if cfg.wrapProxy != nil {
		node = cfg.wrapProxy(node)
	}
	c.proxy = webtier.NewProxyPlugin(node, rmi.MemberView{Member: c.servers[0].member}, nil)
	return c
}

// start boots the next server; converge waits for it.
func (c *tcpCluster) start() *tcpServer {
	c.t.Helper()
	n := strconv.Itoa(len(c.servers) + 1)
	tr := listenTCP(c.t)
	m := cluster.NewMember(
		cluster.Config{Name: "tcp-gate", HeartbeatInterval: 50 * time.Millisecond, FailureTimeout: 5 * time.Second},
		vclock.System, c.bus, cluster.MemberInfo{Name: "server-" + n, Addr: tr.Addr(), Machine: "machine-" + n})
	reg := rmi.NewRegistry(tr, m, nil)
	m.Start()
	c.t.Cleanup(m.Stop)
	s := &tcpServer{name: "server-" + n, tr: tr, member: m, engine: servlet.NewEngine(reg, servlet.Config{Sessions: c.cfg.sessions})}
	if c.cfg.ring {
		views := partition.NewViews(partition.Config{Seed: 1})
		partition.Attach(views, m, servlet.ServiceName)
		s.engine.SetPartitions(views)
	}
	for path, h := range c.deployed {
		s.engine.Handle(path, h)
	}
	c.servers = append(c.servers, s)
	return s
}

// converge waits until every live member sees every live engine (and every
// ring holds them all).
func (c *tcpCluster) converge() {
	c.t.Helper()
	live := 0
	for _, s := range c.servers {
		if s.member != nil {
			live++
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range c.servers {
		for s.member != nil && (len(s.member.OffersOf(servlet.ServiceName)) != live ||
			(c.cfg.ring && s.engine.Sessions().PartitionStats().Members != live)) {
			if time.Now().After(deadline) {
				c.t.Fatal("TCP cluster membership did not converge")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// kill takes a server off the network the way a crash does: no goodbye,
// the others find its socket dead.
func (c *tcpCluster) kill(name string) {
	for _, s := range c.servers {
		if s.name == name && s.member != nil {
			s.member.Stop()
			s.tr.Close()
			s.member = nil
		}
	}
}

func (c *tcpCluster) handle(path string, h servlet.HandlerFunc) {
	c.deployed[path] = h
	for _, s := range c.servers {
		s.engine.Handle(path, h)
	}
}

// bytesOut sums transport.bytes.out over every node, the proxy's included:
// what the cluster has put on the wire (handshakes aside).
func (c *tcpCluster) bytesOut() int64 {
	n := c.proxyTr.Metrics().Counter("transport.bytes.out").Value()
	for _, s := range c.servers {
		n += s.tr.Metrics().Counter("transport.bytes.out").Value()
	}
	return n
}
