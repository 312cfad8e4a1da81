package wls_test

import (
	"context"
	"strconv"
	"testing"

	"wls"
	"wls/internal/servlet"
)

// newSession serves the first request of a new session on s and returns its
// cookie.
func newSession(t *testing.T, s *wls.Server) servlet.Cookie {
	t.Helper()
	resp := s.Web.ServeCtx(context.Background(), "/n", "", nil)
	ck, err := servlet.DecodeCookie(resp.Cookie)
	if err != nil || string(resp.Body) != "1" {
		t.Fatalf("%s: first request got %q (status %d), cookie err %v", s.Name, resp.Body, resp.Status, err)
	}
	return ck
}

// §3.2's preferred replication group decides where a secondary goes: the
// ring only orders the candidates.
func TestRingPlacementHonoursGroups(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 4,
		ReplicationGroups: []string{"gA", "gB"}, PreferredSecondaryGroups: []string{"gB"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		countHandler(s)
	}
	c.Settle(3)
	for _, s := range c.Servers {
		for i := 0; i < 32; i++ {
			ck := newSession(t, s)
			sec := c.Server(ck.Secondary)
			if sec == nil || sec == s || sec.Member().Self().ReplicationGroup != "gB" {
				t.Fatalf("session %s on %s (%s) has secondary %q, want a gB server",
					ck.ID, s.Name, s.Member().Self().ReplicationGroup, ck.Secondary)
			}
		}
	}
}

// Three servers on one machine: every session still gets a secondary, and
// it carries the session through its primary's crash.
func TestOneMachineStillReplicates(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3, ServersPerMachine: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		countHandler(s)
	}
	c.Settle(3)
	ck := newSession(t, c.Servers[0])
	if ck.Secondary == "" || ck.Secondary == ck.Primary {
		t.Fatalf("cookie names secondary %q for primary %s", ck.Secondary, ck.Primary)
	}
	resp := c.Servers[0].Web.ServeCtx(context.Background(), "/n", ck.Encode(), nil)
	if string(resp.Body) != "2" {
		t.Fatalf("second request got %q", resp.Body)
	}
	c.Crash(ck.Primary)
	c.Settle(6)
	resp = c.Server(ck.Secondary).Web.ServeCtx(context.Background(), "/n", ck.Encode(), nil)
	if string(resp.Body) != "3" {
		t.Fatalf("after the primary crashed, its secondary %s counted %q, want 3", ck.Secondary, resp.Body)
	}
}

// The admin server deploys no servlet engine: a router never sends it a
// request and no session places its secondary there.
func TestAdminHoldsNoSessions(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3, WithAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.Admin.Web != nil {
		t.Fatal("the admin server has a servlet engine")
	}
	for _, s := range c.Servers {
		countHandler(s)
	}
	c.Settle(3)
	check := func(how string, ck servlet.Cookie) {
		t.Helper()
		if ck.Primary == "admin" || ck.Secondary == "admin" || ck.Secondary == "" || ck.Secondary == ck.Primary {
			t.Fatalf("%s: session %s placed on %s with secondary %q", how, ck.ID, ck.Primary, ck.Secondary)
		}
	}
	proxy := c.ProxyPlugin("10.0.99.1:80")
	for i := 0; i < 12; i++ {
		resp, err := proxy.Route(context.Background(), "/n", "", nil)
		if err != nil || resp.Status != 200 || resp.ServedBy == "admin" {
			t.Fatalf("routed request %d: served by %s, status %d, err %v", i, resp.ServedBy, resp.Status, err)
		}
		ck, err := servlet.DecodeCookie(resp.Cookie)
		if err != nil {
			t.Fatal(err)
		}
		check("routed request "+strconv.Itoa(i), ck)
	}
	for _, s := range c.Servers {
		for i := 0; i < 4; i++ {
			check("direct on "+s.Name, newSession(t, s))
		}
	}
}
