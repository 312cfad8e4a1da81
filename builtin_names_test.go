package wls_test

import (
	"context"
	"encoding/binary"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"wls"
	"wls/internal/core"
	"wls/internal/ejb"
	"wls/internal/jms"
	"wls/internal/lease"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/singleton"
	"wls/internal/tx"
	"wls/internal/wire"
	"wls/internal/wsdl"
)

// nameSniffer reads the service and method of every request frame on a
// simulated fabric, decoding them the way the rmi envelope codes them: a
// uvarint whose low bit is clear for an index into rmi.BuiltinNames and
// set for a literal's length, the literal following.
type nameSniffer struct {
	table []string

	mu      sync.Mutex
	coded   map[string]bool
	spelled map[string]bool
	bad     [][]byte
}

func newNameSniffer() *nameSniffer {
	return &nameSniffer{table: rmi.BuiltinNames(), coded: map[string]bool{}, spelled: map[string]bool{}}
}

func (s *nameSniffer) frame(_, _ string, f wire.Frame) {
	if f.Kind != wire.KindRequest {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := f.Body
	for range 2 {
		v, n := binary.Uvarint(b)
		switch {
		case n <= 0:
		case v&1 == 0 && v>>1 < uint64(len(s.table)):
			s.coded[s.table[v>>1]] = true
			b = b[n:]
			continue
		case v&1 == 1 && v > 1 && v>>1 <= uint64(len(b)-n):
			s.spelled[string(b[n:n+int(v>>1)])] = true
			b = b[n+int(v>>1):]
			continue
		}
		s.bad = append(s.bad, slices.Clone(f.Body))
		return
	}
}

// TestBuiltinNamesTravelAsCodes drives every subsystem the facade runs —
// the servlet engine and its replication, a Fig 3 fetch, a stateful bean,
// remote two-phase commit, JMS send, receive and store-and-forward,
// singleton leases with a handoff, health, and a Web Services conversation
// — and sniffs each request frame. The only names spelled out must be the
// application's own (the bean and the singleton's handoff endpoint); every
// name of the system's must travel as its one-byte code. A built-in renamed
// without its table entry fails here, instead of quietly putting the
// spelled bytes back on every request.
func TestBuiltinNamesTravelAsCodes(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3, WithAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sniff := newNameSniffer()
	c.Net().Tap(sniff.frame)
	ctx := context.Background()
	s1, s2, s3 := c.Servers[0], c.Servers[1], c.Servers[2]

	// A replicated session: created and written through the proxy plug-in
	// (request, session.update.batch), then served by the server holding
	// neither copy, which fetches it (session.fetch).
	var homes []*ejb.StatefulHome
	for _, s := range c.Servers {
		s.Web.Handle("/n", func(r *servlet.Request) servlet.Response {
			n, _ := strconv.Atoi(r.Session.Get("n"))
			r.Session.Set("n", strconv.Itoa(n+1))
			return servlet.Response{}
		})
		homes = append(homes, s.EJB.DeployStateful(ejb.StatefulSpec{
			Name: "Cart",
			Methods: map[string]ejb.StatefulMethod{
				"add": func(sc *ejb.StatefulCtx, args []byte) ([]byte, error) {
					sc.Set("items", sc.Get("items")+string(args))
					return nil, nil
				},
			},
		}))
	}
	s2.WS.Offer(&wsdl.ServiceDef{
		Name: "Counter",
		Operations: map[string]wsdl.Operation{
			"inc":  {Kind: wsdl.RequestResponse, Handler: func(*wsdl.Conversation, []byte) ([]byte, error) { return nil, nil }},
			"note": {Kind: wsdl.OneWay},
		},
	})
	c.Settle(2)
	resp, err := c.ProxyPlugin("web:80").Route(ctx, "/n", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ck, _ := servlet.DecodeCookie(resp.Cookie)
	for _, s := range c.Servers {
		if s.Name != ck.Primary && s.Name != ck.Secondary {
			if r := s.Web.ServeCtx(context.Background(), "/n", resp.Cookie, nil); r.Status != 200 {
				t.Fatalf("Fig 3 fetch on %s: status %d", s.Name, r.Status)
			}
		}
	}

	// A stateful bean: its service name is the application's.
	h, err := homes[0].Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke(ctx, "add", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.Remove(ctx); err != nil {
		t.Fatal(err)
	}

	// Two-phase commit over branches on two other servers, and a rollback.
	for _, commit := range []bool{true, false} {
		txn := s1.Tx.Begin(0)
		for _, s := range []*wls.Server{s2, s3} {
			s.Tx.Branch(txn.ID())
			txn.Enlist(s.Name, tx.NewRemoteBranch(s1.Node(), s.Addr()))
		}
		if commit {
			err = txn.Commit()
		} else {
			err = txn.Rollback()
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// JMS: a remote send and receive, and a store-and-forward batch.
	if _, err := jms.SendRemote(ctx, s1.Node(), s2.Addr(), "in", jms.Message{Body: []byte("m")}); err != nil {
		t.Fatal(err)
	}
	if _, err := jms.ReceiveRemote(ctx, s1.Node(), s2.Addr(), "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.JMS.Queue("out").Send(jms.Message{Body: []byte("saf")}); err != nil {
		t.Fatal(err)
	}
	fwd := jms.NewForwarder(s1.JMS.Queue("out"), s1.Node(), s2.Addr(), "in", c.Clock(), 10*time.Millisecond)
	fwd.Start()
	settleUntil(t, c, "a store-and-forward delivery", func() bool { return s2.JMS.Queue("in").Len() == 1 })
	fwd.Stop()

	// A singleton taken by a lower-ranked server, renewed, handed off to
	// the preferred one when it starts, then released by both.
	cfg := singleton.Config{Service: "orders", Preferred: []string{s1.Name, s2.Name}}
	second := s2.SingletonHost(cfg, singleton.Nop{})
	second.Start()
	settleUntil(t, c, "the lower-ranked candidate taking the free lease", second.Active)
	c.Settle(10)
	first := s1.SingletonHost(cfg, singleton.Nop{})
	first.Start()
	settleUntil(t, c, "a handoff to the preferred server", func() bool { return first.Active() && !second.Active() })
	if owner, _, err := lease.QueryOwner(ctx, s3.Node(), cfg.Service, c.LeaseManagerAddrs()...); err != nil || owner != s1.Name {
		t.Fatalf("lease owner %q (%v), want %s", owner, err, s1.Name)
	}
	first.Stop()
	second.Stop()

	// Health, the cluster view, and a Web Services conversation.
	if _, _, _, err := core.QueryHealth(ctx, s1.Node(), s3.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.ExternalClient("client:1", time.Hour).Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	conv, err := s1.WS.StartConversation(ctx, s2.Addr(), "Counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Call(ctx, "inc", nil); err != nil {
		t.Fatal(err)
	}
	if err := conv.Send(ctx, "note", nil); err != nil {
		t.Fatal(err)
	}
	if err := conv.Finish(ctx); err != nil {
		t.Fatal(err)
	}

	c.Net().Tap(nil)
	sniff.mu.Lock()
	defer sniff.mu.Unlock()
	if len(sniff.bad) > 0 {
		t.Fatalf("%d request frames whose names do not decode, the first %x", len(sniff.bad), sniff.bad[0])
	}
	for name := range sniff.spelled {
		if name != "Cart" && name != "wls.singleton.orders" {
			t.Errorf("%q travelled spelled out: a name of the system's belongs in rmi's table", name)
		}
	}
	for _, name := range []string{
		"wls.http", "request", "session.update.batch", "session.fetch",
		"create", "invoke", "remove",
		"wls.tx", "prepare", "commit", "rollback",
		"wls.jms", "send", "receive", "deliver",
		"wls.lease", "acquire", "renew", "release", "owner", "handoff",
		"wls.health", "check", "wls.cluster", "view",
		"wls.ws", "start", "call", "oneway", "finish",
	} {
		if !sniff.coded[name] {
			t.Errorf("no request named %q by its code", name)
		}
	}
}

// settleUntil advances the virtual clock a heartbeat at a time, yielding to
// the goroutines its timers start, until cond holds.
func settleUntil(t *testing.T, c *wls.Cluster, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == 200 {
			t.Fatalf("no %s after %d heartbeats", what, i)
		}
		c.Settle(1)
	}
}
