package wls_test

// A three-server cluster on the real TCP fabric, assembled from the
// internal packages the way benchmark/cluster.go assembles its system
// under test (wls.New only builds on netsim): one transport.Listen node per
// server plus one for the proxy plug-in, real-clock in-memory membership,
// replicated sessions. The TCP alloc gates and TestPoolRecyclingTCP share
// it.

import (
	"strconv"
	"testing"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/transport"
	"wls/internal/vclock"
	"wls/internal/webtier"
)

type tcpCluster struct {
	proxy   *webtier.ProxyPlugin
	engines []*servlet.Engine
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

func newTCPCluster(t *testing.T) *tcpCluster {
	t.Helper()
	bus := gossip.NewInMemory(vclock.System, 1)
	cfg := cluster.Config{Name: "tcp-gate", HeartbeatInterval: 50 * time.Millisecond, FailureTimeout: 5 * time.Second}
	c := &tcpCluster{}
	var members []*cluster.Member
	for i := 1; i <= 3; i++ {
		tr := listenTCP(t)
		m := cluster.NewMember(cfg, vclock.System, bus, cluster.MemberInfo{
			Name: "server-" + strconv.Itoa(i), Addr: tr.Addr(), Machine: "machine-" + strconv.Itoa(i)})
		reg := rmi.NewRegistry(tr, m, nil)
		m.Start()
		t.Cleanup(m.Stop)
		members = append(members, m)
		c.engines = append(c.engines, servlet.NewEngine(reg, servlet.Config{}))
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, m := range members {
		for len(m.OffersOf(servlet.ServiceName)) != len(members) {
			if time.Now().After(deadline) {
				t.Fatal("TCP cluster membership did not converge")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	c.proxy = webtier.NewProxyPlugin(listenTCP(t), rmi.MemberView{Member: members[0]}, nil)
	return c
}

func (c *tcpCluster) handle(path string, h servlet.HandlerFunc) {
	for _, e := range c.engines {
		e.Handle(path, h)
	}
}
