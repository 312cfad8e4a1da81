package wls_test

import (
	"context"
	"strconv"
	"testing"

	"wls"
	"wls/internal/partition"
	"wls/internal/servlet"
)

func countHandler(s *wls.Server) {
	s.Web.Handle("/n", func(r *servlet.Request) servlet.Response {
		n, _ := strconv.Atoi(r.Session.Get("n"))
		n++
		r.Session.Set("n", strconv.Itoa(n))
		return servlet.Response{Body: []byte(strconv.Itoa(n))}
	})
}

// wls.New wires a converged ring into every managed server, new sessions
// take ring-placed secondaries, and AddServer scales the ring out.
func TestClusterPartitionWiring(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		countHandler(s)
	}
	c.Settle(3)

	reports := c.PartitionsReport(0)
	if len(reports) != 4 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, r := range reports {
		if r.Members != 4 || r.Epoch == 0 {
			t.Fatalf("server %s not ring-attached: %+v", r.Server, r)
		}
		if r.Fingerprint != reports[0].Fingerprint {
			t.Fatalf("rings diverge: %s has %s, %s has %s",
				r.Server, r.Fingerprint, reports[0].Server, reports[0].Fingerprint)
		}
	}

	// A session created on server-1 carries the ring-placed secondary: the
	// first replica of its ID that is not the primary.
	resp := c.Servers[0].Web.ServeCtx(context.Background(), "/n", "", nil)
	if string(resp.Body) != "1" {
		t.Fatalf("first request: %q (status %d)", resp.Body, resp.Status)
	}
	ck, err := servlet.DecodeCookie(resp.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	ring := c.Servers[0].Partitions().Current().Ring
	want := ""
	ring.Walk(ck.ID, func(m string) bool {
		if m != "server-1" {
			want = m
		}
		return want == ""
	})
	if ck.Secondary != want {
		t.Fatalf("secondary = %s, ring says %s", ck.Secondary, want)
	}

	// Scale out: the fifth server joins the membership and every ring
	// converges on the five-member fingerprint — at a higher epoch on the
	// servers that were up, and as the joiner's very first ring: its peers
	// answered its announcement before it built one, so it never owned a
	// ring of itself alone.
	s5, err := c.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	if v := s5.Partitions().Current(); v.Epoch != 1 || v.Ring.Len() != 5 {
		t.Fatalf("joiner's first ring: epoch %d over %v, want epoch 1 over all five", v.Epoch, v.Ring.Members())
	}
	s5.Partitions().OnChange(func(_, v *partition.View) {
		if v.Ring.Len() == 1 {
			t.Errorf("joiner published a one-member ring at epoch %d while its peers are alive", v.Epoch)
		}
	})
	countHandler(s5)
	c.Settle(4)
	reports2 := c.PartitionsReport(256)
	if len(reports2) != 5 {
		t.Fatalf("got %d reports after AddServer", len(reports2))
	}
	for i, r := range reports2 {
		if r.Members != 5 || (r.Server != s5.Name && r.Epoch < 2) {
			t.Fatalf("server %s did not absorb the join: %+v", r.Server, r)
		}
		if r.Fingerprint != reports2[0].Fingerprint {
			t.Fatalf("rings diverge after join: %+v", r)
		}
		if share := r.Share[s5.Name]; i == 0 && (share < 0.05 || share > 0.45) {
			t.Fatalf("new server owns %.2f of the key space", share)
		}
	}

	// Restart re-wires the fresh servlet engine to the surviving views.
	c.Crash("server-2")
	c.Settle(6)
	c.Restart("server-2")
	c.Settle(6)
	r := c.Server("server-2").PartitionReport(0)
	if r.Members != 5 {
		t.Fatalf("restarted server lost its ring: %+v", r)
	}
}
