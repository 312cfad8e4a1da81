package servlet_test

import (
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"wls/internal/servlet"
	"wls/internal/simtest"
	"wls/internal/store"
	"wls/internal/vclock"
)

// counterServlet increments a session attribute per request.
func counterServlet(r *servlet.Request) servlet.Response {
	n, _ := strconv.Atoi(r.Session.Get("n"))
	n++
	r.Session.Set("n", strconv.Itoa(n))
	return servlet.Response{Body: []byte(strconv.Itoa(n))}
}

func newEngines(t *testing.T, n int, cfg servlet.Config) (*simtest.Fixture, []*servlet.Engine) {
	t.Helper()
	f := simtest.New(simtest.Options{Servers: n})
	t.Cleanup(f.Stop)
	var engines []*servlet.Engine
	for _, s := range f.Servers {
		e := servlet.NewEngine(s.Registry, cfg)
		e.Handle("/count", counterServlet)
		engines = append(engines, e)
	}
	f.Settle(2)
	return f, engines
}

func TestCookieRoundTripProperty(t *testing.T) {
	f := func(rawID [16]byte, noID bool, primary, secondary string, keys, vals []string) bool {
		id := string(rawID[:]) // a record id, or none
		if noID {
			id = ""
		}
		c := servlet.Cookie{ID: id, Primary: primary, Secondary: secondary}
		if len(keys) > 0 {
			c.State = map[string]string{}
			for i, k := range keys {
				v := ""
				if i < len(vals) {
					v = vals[i]
				}
				c.State[k] = v
			}
		}
		out, err := servlet.DecodeCookie(c.Encode())
		if err != nil || out.Encode() != c.Encode() { // equal state, equal cookie
			return false
		}
		if out.ID != c.ID || out.Primary != c.Primary || out.Secondary != c.Secondary {
			return false
		}
		if len(out.State) != len(c.State) {
			return false
		}
		for k, v := range c.State {
			if out.State[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyCookieDecodes(t *testing.T) {
	c, err := servlet.DecodeCookie("")
	if err != nil || c.ID != "" {
		t.Fatalf("empty cookie: %+v err=%v", c, err)
	}
	if _, err := servlet.DecodeCookie("!!!not-base64!!!"); err == nil {
		t.Fatal("garbage cookie should error")
	}
}

func TestSessionPersistsAcrossRequests(t *testing.T) {
	_, engines := newEngines(t, 1, servlet.Config{})
	resp := engines[0].Serve("/count", "", nil)
	if string(resp.Body) != "1" || resp.Cookie == "" {
		t.Fatalf("first: %q cookie=%q", resp.Body, resp.Cookie)
	}
	resp2 := engines[0].Serve("/count", resp.Cookie, nil)
	if string(resp2.Body) != "2" {
		t.Fatalf("second: %q", resp2.Body)
	}
}

func TestReplicatedSessionHasSecondary(t *testing.T) {
	_, engines := newEngines(t, 3, servlet.Config{})
	resp := engines[0].Serve("/count", "", nil)
	c, err := servlet.DecodeCookie(resp.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if c.Primary != "server-1" {
		t.Fatalf("primary = %s", c.Primary)
	}
	if c.Secondary == "" || c.Secondary == c.Primary {
		t.Fatalf("secondary = %q", c.Secondary)
	}
	// The secondary engine holds a replica.
	for i, e := range engines {
		name := fmt.Sprintf("server-%d", i+1)
		if name == c.Secondary && e.Sessions().ResidentSessions() != 1 {
			t.Fatal("secondary has no replica")
		}
	}
}

func TestSecondaryPromotionKeepsState(t *testing.T) {
	// Fig 2's engine-side flow: request lands directly on the secondary
	// (as the plug-in would route it after a primary failure).
	f, engines := newEngines(t, 3, servlet.Config{})
	resp := engines[0].Serve("/count", "", nil)
	engines[0].Serve("/count", resp.Cookie, nil) // n=2 — reuse original cookie is fine (same session)
	c, _ := servlet.DecodeCookie(resp.Cookie)

	f.Crash(c.Primary)
	var secondary *servlet.Engine
	for i, e := range engines {
		if fmt.Sprintf("server-%d", i+1) == c.Secondary {
			secondary = e
		}
	}
	resp3 := secondary.Serve("/count", resp.Cookie, nil)
	if string(resp3.Body) != "3" {
		t.Fatalf("state lost on promotion: %q", resp3.Body)
	}
	c3, _ := servlet.DecodeCookie(resp3.Cookie)
	if c3.Primary != c.Secondary {
		t.Fatalf("cookie not rewritten: primary=%s", c3.Primary)
	}
	if c3.Secondary == "" || c3.Secondary == c3.Primary || c3.Secondary == c.Primary {
		t.Fatalf("new secondary = %q", c3.Secondary)
	}
}

func TestDeadSecondaryIsReplacedAtOnce(t *testing.T) {
	// The secondary dies and the primary writes before the failure
	// detector has dropped it from the view: the ship fails, and the
	// primary must seed a different server rather than pick the dead one
	// again (which used to recurse until the stack overflowed).
	f, engines := newEngines(t, 3, servlet.Config{})
	resp := engines[0].Serve("/count", "", nil)
	c, _ := servlet.DecodeCookie(resp.Cookie)
	f.Crash(c.Secondary)

	resp2 := engines[0].Serve("/count", resp.Cookie, nil)
	c2, _ := servlet.DecodeCookie(resp2.Cookie)
	if string(resp2.Body) != "2" || c2.Secondary == "" || c2.Secondary == c.Secondary || c2.Secondary == c.Primary {
		t.Fatalf("after the secondary %s died: body %q, cookie %+v", c.Secondary, resp2.Body, c2)
	}
	// The new secondary holds the whole state: promote it.
	f.Crash(c.Primary)
	for i, e := range engines {
		if fmt.Sprintf("server-%d", i+1) == c2.Secondary {
			if resp3 := e.Serve("/count", resp2.Cookie, nil); string(resp3.Body) != "3" {
				t.Fatalf("state not on the replacement secondary: %q", resp3.Body)
			}
		}
	}
}

func TestFetchFromSecondaryOnArbitraryServer(t *testing.T) {
	// Fig 3's engine-side flow: request lands on a server that holds
	// neither primary nor replica; it fetches from the secondary and
	// becomes primary, leaving the secondary unchanged.
	_, engines := newEngines(t, 3, servlet.Config{})
	resp := engines[0].Serve("/count", "", nil)
	c, _ := servlet.DecodeCookie(resp.Cookie)

	var third *servlet.Engine
	for i, e := range engines {
		name := fmt.Sprintf("server-%d", i+1)
		if name != c.Primary && name != c.Secondary {
			third = e
		}
	}
	resp2 := third.Serve("/count", resp.Cookie, nil)
	if string(resp2.Body) != "2" {
		t.Fatalf("state not fetched: %q", resp2.Body)
	}
	c2, _ := servlet.DecodeCookie(resp2.Cookie)
	if c2.Primary == c.Primary || c2.Primary == "" {
		t.Fatalf("new primary = %q", c2.Primary)
	}
	if c2.Secondary != c.Secondary {
		t.Fatalf("secondary must be left unchanged: %q -> %q", c.Secondary, c2.Secondary)
	}
}

func TestFig3FailoverContinuesTheGeneration(t *testing.T) {
	// The new primary of Fig 3 leaves the secondary unchanged, so its first
	// delta must be one that secondary applies: it carries on from the
	// generation the fetched copy had. (Starting over at 1, the secondary
	// ignored every delta until the count passed its own.)
	f, engines := newEngines(t, 3, servlet.Config{})
	engine := func(name string) *servlet.Engine {
		for i, s := range f.Servers {
			if s.Name == name {
				return engines[i]
			}
		}
		t.Fatalf("no server %q", name)
		return nil
	}
	resp := engines[0].Serve("/count", "", nil)
	for i := 0; i < 6; i++ {
		resp = engines[0].Serve("/count", resp.Cookie, nil)
	}
	c, _ := servlet.DecodeCookie(resp.Cookie)
	third := "server-2"
	if c.Secondary == third {
		third = "server-3"
	}
	moved := engine(third).Serve("/count", resp.Cookie, nil)
	c2, _ := servlet.DecodeCookie(moved.Cookie)
	if string(moved.Body) != "8" || c2.Primary != third || c2.Secondary != c.Secondary {
		t.Fatalf("Fig 3 failover to %s: body %q, cookie %+v (was %+v)", third, moved.Body, c2, c)
	}
	f.Crash(third)
	if promoted := engine(c.Secondary).Serve("/count", moved.Cookie, nil); string(promoted.Body) != "9" {
		t.Fatalf("the unchanged secondary %s missed the new primary's first write: counted %q, want 9", c.Secondary, promoted.Body)
	}
}

func TestBothReplicasGoneStartsFresh(t *testing.T) {
	f, engines := newEngines(t, 3, servlet.Config{})
	resp := engines[0].Serve("/count", "", nil)
	c, _ := servlet.DecodeCookie(resp.Cookie)
	f.Crash(c.Primary)
	f.Crash(c.Secondary)
	f.SettleTimeout()
	var survivor *servlet.Engine
	for i, e := range engines {
		name := fmt.Sprintf("server-%d", i+1)
		if name != c.Primary && name != c.Secondary {
			survivor = e
		}
	}
	resp2 := survivor.Serve("/count", resp.Cookie, nil)
	if string(resp2.Body) != "1" {
		t.Fatalf("expected fresh session after total loss, got %q", resp2.Body)
	}
}

// TestForgedCookieStartsAFreshSession: a cookie naming an id no server
// holds a copy of — here one the client made up — gets a new session under
// an id of the server's choosing, wherever it lands: the primary it names,
// the secondary, a third server. A client cannot pick a live session's id.
func TestForgedCookieStartsAFreshSession(t *testing.T) {
	_, engines := newEngines(t, 3, servlet.Config{})
	const forgedID = "0123456789abcdef"
	forged := servlet.Cookie{ID: forgedID, Primary: "server-1", Secondary: "server-2"}.Encode()
	for i, e := range engines {
		resp := e.Serve("/count", forged, nil)
		c, err := servlet.DecodeCookie(resp.Cookie)
		if err != nil || string(resp.Body) != "1" || c.ID == forgedID || len(c.ID) != 16 {
			t.Fatalf("forged cookie at server-%d: body %q, cookie %+v (%v)", i+1, resp.Body, c, err)
		}
		if again := e.Serve("/count", resp.Cookie, nil); string(again.Body) != "2" {
			t.Fatalf("the fresh session at server-%d does not continue: %q", i+1, again.Body)
		}
	}
}

// TestFetchCutByPartitionStartsAFreshSession is Fig 3 with the fetch cut:
// the primary is gone, the request lands on a third server, and a netsim
// partition keeps that server from the secondary. The session starts afresh
// under a new id, so once the partition heals the replica the secondary
// still holds (at a higher generation) is not mistaken for the new
// session's: the new session's writes reach the secondary, and a promotion
// there serves them. Keeping the id, the new primary's deltas fell below
// the stale replica's generation and the promotion served the old state.
func TestFetchCutByPartitionStartsAFreshSession(t *testing.T) {
	f, engines := newEngines(t, 3, servlet.Config{})
	for _, e := range engines {
		e.Handle("/get", func(r *servlet.Request) servlet.Response {
			return servlet.Response{Body: []byte(r.Session.Get("n"))}
		})
	}
	resp := engines[0].Serve("/count", "", nil)
	for i := 0; i < 4; i++ {
		resp = engines[0].Serve("/count", resp.Cookie, nil)
	}
	was, _ := servlet.DecodeCookie(resp.Cookie)
	if string(resp.Body) != "5" || was.Primary != "server-1" || was.Secondary == "" {
		t.Fatalf("setup: body %q, cookie %+v", resp.Body, was)
	}
	sec, third := engines[1], engines[2]
	if was.Secondary == "server-3" {
		sec, third = engines[2], engines[1]
	}
	f.Crash("server-1")
	f.SettleTimeout() // the secondary is the one engine the third can place a secondary on

	f.Partition(third.ServerName(), was.Secondary, true)
	moved := third.Serve("/get", resp.Cookie, nil)
	now, _ := servlet.DecodeCookie(moved.Cookie)
	if string(moved.Body) != "" || now.ID == was.ID || now.Primary != third.ServerName() || now.Secondary != was.Secondary {
		t.Fatalf("fetch cut: body %q, cookie %+v (was %+v); want a fresh session under a new id", moved.Body, now, was)
	}
	f.Partition(third.ServerName(), was.Secondary, false)

	wrote := third.Serve("/count", moved.Cookie, nil)
	if string(wrote.Body) != "1" {
		t.Fatalf("first write of the fresh session counted %q", wrote.Body)
	}
	f.Crash(third.ServerName())
	if promoted := sec.Serve("/get", wrote.Cookie, nil); string(promoted.Body) != "1" {
		t.Fatalf("promoted on %s, the session reads n=%q; its primary wrote 1", was.Secondary, promoted.Body)
	}
}

func TestPersistentSessionsAreStateless(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	db := store.New("backend", f.Clock)
	var engines []*servlet.Engine
	for _, s := range f.Servers {
		e := servlet.NewEngine(s.Registry, servlet.Config{Sessions: servlet.SessionsPersistent, DB: db})
		e.Handle("/count", counterServlet)
		engines = append(engines, e)
	}
	f.Settle(2)
	// Any server can handle any request with no replication machinery.
	resp := engines[0].Serve("/count", "", nil)
	resp2 := engines[1].Serve("/count", resp.Cookie, nil)
	if string(resp2.Body) != "2" {
		t.Fatalf("persistent session not shared: %q", resp2.Body)
	}
	// A cookie naming no stored session gets a fresh one, under a new id.
	forged := servlet.Cookie{ID: "0123456789abcdef"}.Encode()
	if resp3 := engines[1].Serve("/count", forged, nil); string(resp3.Body) != "1" || resp3.Cookie == forged {
		t.Fatalf("forged persistent cookie: body %q, cookie %q", resp3.Body, resp3.Cookie)
	}
	// State survives both servers dying (it is in the database).
	if len(db.Scan("wls.sessions", nil)) != 2 {
		t.Fatalf("sessions in db = %d", len(db.Scan("wls.sessions", nil)))
	}
}

func TestClientCookieSessions(t *testing.T) {
	_, engines := newEngines(t, 2, servlet.Config{Sessions: servlet.SessionsClientCookie})
	resp := engines[0].Serve("/count", "", nil)
	c, _ := servlet.DecodeCookie(resp.Cookie)
	if c.State["n"] != "1" {
		t.Fatalf("state not in cookie: %v", c.State)
	}
	// Any server can continue the session purely from the cookie.
	resp2 := engines[1].Serve("/count", resp.Cookie, nil)
	if string(resp2.Body) != "2" {
		t.Fatalf("cookie state not used: %q", resp2.Body)
	}
	// Nothing resident server-side.
	if engines[0].Sessions().ResidentSessions() != 0 {
		t.Fatal("client-cookie mode left server-side state")
	}
}

func TestUnknownPath404(t *testing.T) {
	_, engines := newEngines(t, 1, servlet.Config{})
	resp := engines[0].Serve("/nope", "", nil)
	if resp.Status != 404 {
		t.Fatalf("status = %d", resp.Status)
	}
}

// --- JSP page/fragment cache -------------------------------------------------

func testPage(renders *int) servlet.Page {
	return servlet.Page{
		Name: "home",
		Fragments: []servlet.Fragment{
			{Name: "header", Scope: servlet.ScopeGlobal, TTL: time.Hour,
				Render: func(u, g string) []byte { *renders++; return []byte("[header]") }},
			{Name: "greeting", Scope: servlet.ScopeUser, TTL: time.Hour,
				Render: func(u, g string) []byte { *renders++; return []byte("[hi " + u + "]") }},
			{Name: "deals", Scope: servlet.ScopeGroup, TTL: time.Minute,
				Render: func(u, g string) []byte { *renders++; return []byte("[deals " + g + "]") }},
		},
	}
}

func TestFragmentCachingSharesAcrossUsers(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	renders := 0
	pc := servlet.NewPageCache(servlet.CacheFragments, clk, nil)
	p := testPage(&renders)

	out := pc.Render(p, "alice", "gold")
	if string(out) != "[header][hi alice][deals gold]" {
		t.Fatalf("page = %q", out)
	}
	rendersAfterAlice := renders // 3
	pc.Render(p, "bob", "gold")  // header + deals shared; greeting re-rendered
	if renders != rendersAfterAlice+1 {
		t.Fatalf("renders = %d, want %d (only the per-user fragment)", renders, rendersAfterAlice+1)
	}
	pc.Render(p, "alice", "gold") // fully cached
	if renders != rendersAfterAlice+1 {
		t.Fatal("cached page re-rendered")
	}
}

func TestWholePageCachingIsPerUserWhenPersonalized(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	renders := 0
	pc := servlet.NewPageCache(servlet.CacheWholePage, clk, nil)
	p := testPage(&renders)
	pc.Render(p, "alice", "gold")
	pc.Render(p, "bob", "gold")
	// Whole-page mode cannot share anything between users: 6 renders.
	if renders != 6 {
		t.Fatalf("renders = %d, want 6", renders)
	}
	pc.Render(p, "alice", "gold")
	if renders != 6 {
		t.Fatal("whole-page entry not cached per user")
	}
}

func TestFragmentTTLExpiry(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	renders := 0
	pc := servlet.NewPageCache(servlet.CacheFragments, clk, nil)
	p := testPage(&renders)
	pc.Render(p, "alice", "gold")
	clk.Advance(2 * time.Minute) // deals TTL (1m) expired; others (1h) not
	pc.Render(p, "alice", "gold")
	if renders != 4 {
		t.Fatalf("renders = %d, want 4 (only the expired fragment)", renders)
	}
}

func TestPageCacheFlush(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	renders := 0
	pc := servlet.NewPageCache(servlet.CacheFragments, clk, nil)
	p := testPage(&renders)
	pc.Render(p, "alice", "gold")
	pc.Flush()
	pc.Render(p, "alice", "gold")
	if renders != 6 {
		t.Fatalf("renders = %d, want 6 after flush", renders)
	}
	if pc.Renders() != 6 {
		t.Fatalf("Renders() = %d", pc.Renders())
	}
}
