package servlet_test

import (
	"testing"

	"wls/internal/partition"
	"wls/internal/servlet"
	"wls/internal/simtest"
)

// ringEngines builds n engines and returns each one's ring, the one its
// session manager builds over the servlet service.
func ringEngines(t *testing.T, n int) (*simtest.Fixture, []*servlet.Engine, []*partition.Views) {
	t.Helper()
	f, engines := newEngines(t, n, servlet.Config{})
	var views []*partition.Views
	for _, e := range engines {
		views = append(views, e.Sessions().Partitions())
	}
	return f, engines, views
}

func TestRingPlacedSecondary(t *testing.T) {
	_, engines, views := ringEngines(t, 4)
	// Every server converged on the same ring.
	fp := views[0].Current().Ring.Fingerprint()
	for i, vs := range views {
		if vs.Current().Ring.Fingerprint() != fp {
			t.Fatalf("server %d ring diverged", i+1)
		}
	}
	resp := engines[0].Serve("/count", "", nil)
	c, err := servlet.DecodeCookie(resp.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	// The secondary must be the first ring replica of the session key that
	// is not the primary.
	var want string
	views[0].Current().Ring.Walk(c.ID, func(m string) bool {
		if m != "server-1" {
			want = m
		}
		return want == ""
	})
	if want == "" || c.Secondary != want {
		t.Fatalf("secondary %q, ring says %q", c.Secondary, want)
	}
	stats := engines[0].Sessions().PartitionStats()
	if stats.Members != 4 || stats.Epoch == 0 {
		t.Fatalf("stats not wired: %+v", stats)
	}
}

// A membership change must re-ship affected primary sessions to their new
// ring secondary without losing any state, and the response cookie must
// carry the new placement.
func TestRebalanceOnMembershipChangeKeepsSessions(t *testing.T) {
	f, engines, views := ringEngines(t, 4)
	const sessions = 24
	cookies := make([]string, sessions)
	for i := range cookies {
		resp := engines[0].Serve("/count", "", nil)
		if string(resp.Body) != "1" {
			t.Fatalf("session %d: first request got %q", i, resp.Body)
		}
		cookies[i] = resp.Cookie
	}
	epochBefore := views[0].Current().Epoch

	f.Crash("server-4")
	f.SettleTimeout()
	if e := views[0].Current().Epoch; e <= epochBefore {
		t.Fatalf("crash did not bump ring epoch (%d -> %d)", epochBefore, e)
	}

	movedCookie := 0
	for i, ck := range cookies {
		resp := engines[0].Serve("/count", ck, nil)
		if string(resp.Body) != "2" {
			t.Fatalf("session %d lost state across rebalance: got %q, want 2", i, resp.Body)
		}
		if resp.Cookie != "" {
			cookies[i] = resp.Cookie
		}
		c2, err := servlet.DecodeCookie(cookies[i])
		if err != nil {
			t.Fatal(err)
		}
		if c2.Secondary == "server-4" {
			t.Fatalf("session %d still names the dead server as secondary", i)
		}
		c1, _ := servlet.DecodeCookie(ck)
		if c1.Secondary != c2.Secondary {
			movedCookie++
		}
	}
	stats := engines[0].Sessions().PartitionStats()
	if stats.RingMoves == 0 || movedCookie == 0 {
		t.Fatalf("no session re-shipped after the epoch change (moves=%d cookies=%d)", stats.RingMoves, movedCookie)
	}
	if stats.SessionsBehind != 0 {
		t.Fatalf("%d sessions still behind after all were touched", stats.SessionsBehind)
	}
	// All sessions must survive a primary failover onto their (new)
	// secondary: state was re-shipped there.
	for i, ck := range cookies {
		if resp := engines[0].Serve("/count", ck, nil); resp.Cookie != "" {
			cookies[i] = resp.Cookie
		}
	}
	f.Crash("server-1")
	f.SettleTimeout()
	for i, ck := range cookies {
		c, _ := servlet.DecodeCookie(ck)
		var eng *servlet.Engine
		for j, s := range f.Servers {
			if s.Name == c.Secondary {
				eng = engines[j]
			}
		}
		if eng == nil {
			t.Fatalf("session %d: secondary %q not found", i, c.Secondary)
		}
		resp := eng.Serve("/count", ck, nil)
		if string(resp.Body) != "4" {
			t.Fatalf("session %d lost state on failover to %s: got %q, want 4", i, c.Secondary, resp.Body)
		}
	}
}

// TestFig3UnderTheRingKeepsTheSecondary lands Fig 3 on the one server whose
// ring walk of the session would pick the old primary, not the cookie's
// secondary: the new primary still leaves the secondary unchanged, moves
// nothing, and that secondary, promoted, serves the new primary's write.
func TestFig3UnderTheRingKeepsTheSecondary(t *testing.T) {
	f, engines, views := ringEngines(t, 3)
	byName := map[string]int{}
	for i, s := range f.Servers {
		byName[s.Name] = i
	}
	for try := 0; ; try++ {
		if try == 64 {
			t.Fatal("no session in 64 whose third server's walk prefers the primary")
		}
		resp := engines[0].Serve("/count", "", nil)
		c, _ := servlet.DecodeCookie(resp.Cookie)
		third := ""
		for _, s := range f.Servers {
			if s.Name != c.Primary && s.Name != c.Secondary {
				third = s.Name
			}
		}
		walked := ""
		views[byName[third]].Current().Ring.Walk(c.ID, func(m string) bool {
			walked = m
			return m == third
		})
		if walked != c.Primary {
			continue
		}
		moved := engines[byName[third]].Serve("/count", resp.Cookie, nil)
		c2, _ := servlet.DecodeCookie(moved.Cookie)
		if string(moved.Body) != "2" || c2.Primary != third || c2.Secondary != c.Secondary {
			t.Fatalf("Fig 3 at %s: body %q, pair %s/%s (was %s/%s); want the secondary unchanged",
				third, moved.Body, c2.Primary, c2.Secondary, c.Primary, c.Secondary)
		}
		if n := engines[byName[third]].Sessions().PartitionStats().RingMoves; n != 0 {
			t.Fatalf("Fig 3 at %s re-placed %d sessions", third, n)
		}
		f.Crash(third)
		if promoted := engines[byName[c.Secondary]].Serve("/count", moved.Cookie, nil); string(promoted.Body) != "3" {
			t.Fatalf("promoted at %s, the session counted %q; want 3", c.Secondary, promoted.Body)
		}
		return
	}
}
