package wls_test

// Pool-recycling stress: requests, responses, and sessions are recycled
// through sync.Pools across the webtier and servlet tiers, so the bug
// class to guard against is cross-request state bleed — caller A observing
// caller B's body, session value, or session identity after an object was
// released and reissued. These tests hammer the full path concurrently
// (run under -race in CI) and assert every response belongs to the request
// that asked for it.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wls"
	"wls/internal/servlet"
	"wls/internal/wire"
)

// TestGateRacePoolRecyclingNoCrossRequestBleed drives many concurrent callers,
// each with its own session, through the proxy plug-in. The servlet echoes
// the body and stamps the session with the caller's identity; a recycled
// Request, Session, or response buffer that leaked between callers shows
// up as a foreign tag or a corrupted echo.
func TestGateRacePoolRecyclingNoCrossRequestBleed(t *testing.T) {
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		s.Web.Handle("/tag", func(r *servlet.Request) servlet.Response {
			owner := string(r.Body)
			prev := r.Session.Get("owner")
			if prev == "" {
				r.Session.Set("owner", owner)
				prev = owner
			}
			// Echo "<session-owner>:<request-body>": the caller checks both
			// halves, so a stale session or a recycled body buffer is loud.
			return servlet.Response{Body: []byte(prev + ":" + owner)}
		})
	}
	c.Settle(2)
	proxy := c.ProxyPlugin("webserver:80")

	const callers = 16
	const reqs = 150
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for id := 0; id < callers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			me := fmt.Sprintf("caller-%d", id)
			body := []byte(me)
			want := me + ":" + me
			ctx := context.Background()
			cookie := ""
			for i := 0; i < reqs; i++ {
				resp, err := proxy.Route(ctx, "/tag", cookie, body)
				if err != nil {
					errs <- fmt.Errorf("%s req %d: %v", me, i, err)
					return
				}
				if resp.Cookie != "" {
					cookie = resp.Cookie
				}
				if got := string(resp.Body); got != want {
					errs <- fmt.Errorf("%s req %d: cross-request bleed: got %q, want %q", me, i, got, want)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGateRacePoolRecyclingResponseBodyOwnership pins the response-ownership
// contract at the webtier boundary: the bytes returned by Route remain
// valid after the pooled call/response objects behind them are recycled by
// later requests. A pool that handed the same backing buffer to the next
// request would corrupt the held response.
func TestGateRacePoolRecyclingResponseBodyOwnership(t *testing.T) {
	wire.PoisonReleased(true) // the pooled response frame behind held.Body is released on delivery
	defer wire.PoisonReleased(false)
	c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		s.Web.Handle("/echo", func(r *servlet.Request) servlet.Response {
			return servlet.Response{Body: r.Body}
		})
	}
	c.Settle(2)
	proxy := c.ProxyPlugin("webserver:80")
	ctx := context.Background()

	held, err := proxy.Route(ctx, "/echo", "", []byte("held-response"))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), held.Body...)
	cookie := held.Cookie
	for i := 0; i < 256; i++ {
		if _, err := proxy.Route(ctx, "/echo", cookie, []byte(fmt.Sprintf("overwrite-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(held.Body, snapshot) {
		t.Fatalf("held response mutated by later requests: %q", held.Body)
	}
}

// TestGateRacePoolRecyclingTCP is the use-after-release test for the TCP hop's
// pooled buffers (request read buffers, response frames and encoders, call
// slots). With wire.PoisonReleased on, every buffer is overwritten with
// 0xDB the moment it is released, so a handler or caller still looking at
// one reads garbage. 16 callers drive echo (the response aliases the
// inbound buffer), a replicated session write (a second hop inside the
// first) and a handler that blocks well past its neighbours while holding
// its request body, over real transport nodes; every reply must carry its
// own request's bytes, and a reply must stay intact after later requests
// have recycled everything behind it.
func TestGateRacePoolRecyclingTCP(t *testing.T) {
	wire.PoisonReleased(true)
	defer wire.PoisonReleased(false)
	c := newTCPCluster(t)
	c.handle("/echo", func(r *servlet.Request) servlet.Response {
		return servlet.Response{Body: r.Body}
	})
	c.handle("/tag", func(r *servlet.Request) servlet.Response {
		owner, _, _ := strings.Cut(string(r.Body), "/")
		if prev := r.Session.Get("owner"); prev != "" {
			owner = prev
		} else {
			r.Session.Set("owner", owner)
		}
		r.Session.Set("last", string(r.Body)) // a delta to the secondary on every request
		return servlet.Response{Body: []byte(owner + ":" + string(r.Body))}
	})
	c.handle("/slow", func(r *servlet.Request) servlet.Response {
		before := string(r.Body)
		time.Sleep(2 * time.Millisecond) // dozens of neighbours come and go meanwhile
		if string(r.Body) != before {
			t.Errorf("request body changed under a blocked handler: %q -> %q", before, r.Body)
		}
		return servlet.Response{Body: r.Body}
	})

	const callers = 16
	const reqs = 150
	var wg sync.WaitGroup
	for id := 0; id < callers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			me := fmt.Sprintf("c%02d", id)
			ctx := context.Background()
			cookie := ""
			var held, heldWant []byte
			for i := 0; i < reqs; i++ {
				path := [...]string{"/echo", "/tag", "/echo", "/tag", "/slow"}[(id+i)%5]
				body := []byte(fmt.Sprintf("%s/r%03d", me, i))
				want := string(body)
				if path == "/tag" {
					want = me + ":" + want
				}
				resp, err := c.proxy.Route(ctx, path, cookie, body)
				if err != nil {
					t.Errorf("%s req %d %s: %v", me, i, path, err)
					return
				}
				if resp.Cookie != "" {
					cookie = resp.Cookie
				}
				if string(resp.Body) != want {
					t.Errorf("%s req %d %s: got %q, want %q", me, i, path, resp.Body, want)
					return
				}
				if !bytes.Equal(held, heldWant) {
					t.Errorf("%s: reply held since req %d mutated: %q, want %q", me, i-1, held, heldWant)
					return
				}
				held, heldWant = resp.Body, []byte(want)
			}
		}(id)
	}
	wg.Wait()
}
