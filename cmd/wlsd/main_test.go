package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"wls"
	"wls/internal/partition"
	"wls/internal/servlet"
)

// TestAdminPartitionsEndpoint drives the admin surface wlsadmin talks to
// against a live 8-server netsim cluster: /admin/partitions must report a
// converged ring (one fingerprint, 8 members, epochs running) with
// ownership shares summing to 1, and /admin/addserver must scale the ring
// out to 9 live.
func TestAdminPartitionsEndpoint(t *testing.T) {
	cluster, err := wls.New(wls.Options{Servers: 8, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	deployDemoApp(cluster)
	cluster.AwaitConverged()

	srv := httptest.NewServer(newAdminMux(cluster))
	defer srv.Close()

	fetch := func() []wls.PartitionReport {
		t.Helper()
		resp, err := http.Get(srv.URL + "/admin/partitions?sample=2048")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out []wls.PartitionReport
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	reports := fetch()
	if len(reports) != 8 {
		t.Fatalf("got %d reports, want 8", len(reports))
	}
	for _, r := range reports {
		if r.Epoch == 0 || r.Members != 8 {
			t.Fatalf("server %s not ring-attached: %+v", r.Server, r)
		}
		if r.Fingerprint != reports[0].Fingerprint {
			t.Fatalf("rings diverge: %s has %s, want %s", r.Server, r.Fingerprint, reports[0].Fingerprint)
		}
		var sum float64
		for _, share := range r.Share {
			sum += share
		}
		if len(r.Share) != 8 || sum < 0.99 || sum > 1.01 {
			t.Fatalf("server %s shares over %d members sum to %.3f", r.Server, len(r.Share), sum)
		}
	}

	// Live scale-out through the same surface.
	resp, err := http.Get(srv.URL + "/admin/addserver")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("addserver status %d", resp.StatusCode)
	}
	// The joiner's peers answered its announcement before it built a ring:
	// its first ring is the full one, and it never shrinks to itself alone.
	joiner := cluster.Servers[len(cluster.Servers)-1]
	if v := joiner.Partitions().Current(); v.Epoch != 1 || v.Ring.Len() != 9 {
		t.Fatalf("joiner's first ring: epoch %d over %v, want epoch 1 over all nine", v.Epoch, v.Ring.Members())
	}
	joiner.Partitions().OnChange(func(_, v *partition.View) {
		if v.Ring.Len() == 1 {
			t.Errorf("joiner published a one-member ring at epoch %d while its peers are alive", v.Epoch)
		}
	})
	cluster.Settle(4)
	after := fetch()
	if len(after) != 9 {
		t.Fatalf("got %d reports after addserver, want 9", len(after))
	}
	for _, r := range after {
		if r.Members != 9 || (r.Server != joiner.Name && r.Epoch < 2) {
			t.Fatalf("server %s did not absorb the join: %+v", r.Server, r)
		}
		if r.Fingerprint != after[0].Fingerprint {
			t.Fatalf("rings diverge after join: %s has %s, want %s", r.Server, r.Fingerprint, after[0].Fingerprint)
		}
	}
}

// TestAppHandlerForwardsBody drives the application listener's handler in
// front of a live proxy plug-in: a POST body reaches the servlet (it used to
// be dropped), a body of exactly servlet.MaxHTTPBody still does, and one
// byte more is answered 413 without reaching the cluster.
func TestAppHandlerForwardsBody(t *testing.T) {
	cluster, err := wls.New(wls.Options{Servers: 2, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	deployDemoApp(cluster)
	cluster.AwaitConverged()

	srv := httptest.NewServer(newAppHandler(cluster.ProxyPlugin("webserver:80").Route))
	defer srv.Close()

	post := func(body []byte) (int, []byte, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/echo", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		var cookie string
		for _, c := range resp.Cookies() {
			if c.Name == sessionCookie {
				cookie = c.Value
			}
		}
		return resp.StatusCode, got, cookie
	}

	status, got, cookie := post([]byte("a body, not nil"))
	if status != http.StatusOK || string(got) != "a body, not nil" {
		t.Fatalf("POST /echo: %d %q", status, got)
	}
	if cookie == "" {
		t.Fatal("POST /echo: no session cookie in the reply")
	}
	full := bytes.Repeat([]byte{'x'}, servlet.MaxHTTPBody)
	if status, got, _ = post(full); status != http.StatusOK || !bytes.Equal(got, full) {
		t.Fatalf("POST /echo with exactly MaxHTTPBody: %d, %d bytes back", status, len(got))
	}
	if status, _, _ = post(append(full, 'y')); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /echo with MaxHTTPBody+1: status %d, want 413", status)
	}
	// A request with no body is still one.
	resp, err := http.Get(srv.URL + "/hello")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if hello, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK || !bytes.HasPrefix(hello, []byte("hello from server-")) {
		t.Fatalf("GET /hello: %d %q", resp.StatusCode, hello)
	}
}

// TestServedByHeaderFollowsThePrimary drives a replicated session through
// the application listener: X-Served-By names the session's primary on
// every routed request, and once the primary is stopped through the admin
// surface it names the secondary, which promoted itself (Fig 2). No reply
// frame names its server, so the header comes from the member the proxy
// called. A Set-Cookie comes with the reply that creates the session and
// the one that fails it over, and with no steady one: the browser's cookie
// still holds.
func TestServedByHeaderFollowsThePrimary(t *testing.T) {
	cluster, err := wls.New(wls.Options{Servers: 3, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	deployDemoApp(cluster)
	cluster.AwaitConverged()
	app := httptest.NewServer(newAppHandler(cluster.ProxyPlugin("webserver:80").Route))
	defer app.Close()
	admin := httptest.NewServer(newAdminMux(cluster))
	defer admin.Close()

	cookie := ""
	count := func() (servedBy string, session servlet.Cookie, set bool) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, app.URL+"/count", nil)
		if cookie != "" {
			req.AddCookie(&http.Cookie{Name: sessionCookie, Value: cookie})
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /count: status %d", resp.StatusCode)
		}
		for _, c := range resp.Cookies() {
			if c.Name == sessionCookie {
				cookie, set = c.Value, true
			}
		}
		session, err = servlet.DecodeCookie(cookie)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Served-By"), session, set
	}

	was := servlet.Cookie{}
	for i := 0; i < 3; i++ {
		servedBy, session, set := count()
		if session.Primary == "" || session.Secondary == "" || servedBy != session.Primary {
			t.Fatalf("request %d: X-Served-By %q, session %+v; want its primary", i, servedBy, session)
		}
		if i > 0 && (session.ID != was.ID || session.Primary != was.Primary) {
			t.Fatalf("request %d: session %+v, was %+v", i, session, was)
		}
		if created := i == 0; set != created {
			t.Fatalf("request %d: Set-Cookie sent %v, want %v", i, set, created)
		}
		was = session
	}

	resp, err := http.Get(admin.URL + "/admin/crash?server=" + was.Primary)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("crash %s: status %d", was.Primary, resp.StatusCode)
	}
	servedBy, session, set := count()
	if servedBy != was.Secondary || session.Primary != was.Secondary || session.ID != was.ID {
		t.Fatalf("after stopping %s: X-Served-By %q, session %+v; want the promoted secondary %s", was.Primary, servedBy, session, was.Secondary)
	}
	if !set {
		t.Fatalf("after stopping %s: no Set-Cookie for the rewritten cookie", was.Primary)
	}
}

// TestAppHandlerReadsTheCookieInPlace measures the application handler's
// allocations per request in front of a router that does nothing, with the
// session cookie among others: WLSESSION is taken from the Cookie header as
// a substring (servlet.CookieValue): 1 allocation per request here, where
// http.Request.Cookie, which parses every cookie of the request into an
// *http.Cookie, made it 3. The router names no new cookie, so no
// Set-Cookie is formatted; a second router that names one gets exactly one
// Set-Cookie for it.
func TestAppHandlerReadsTheCookieInPlace(t *testing.T) {
	const value = "AbCdEf-session_cookie"
	var got string
	h := newAppHandler(func(_ context.Context, _, cookie string, _ []byte) (servlet.Response, error) {
		got = cookie
		return servlet.Response{Status: http.StatusOK}, nil
	})
	r := httptest.NewRequest(http.MethodGet, "/hello", nil)
	r.Header.Add("Cookie", "theme=dark; XWLSESSION=decoy; "+sessionCookie+"="+value+"; lang=en")
	w := httptest.NewRecorder()
	n := testing.AllocsPerRun(200, func() {
		w.Body.Reset()
		h.ServeHTTP(w, r)
	})
	if got != value {
		t.Fatalf("the router was handed cookie %q, want %q", got, value)
	}
	if set := w.Header().Values("Set-Cookie"); len(set) != 0 {
		t.Fatalf("a reply naming no cookie sent Set-Cookie %q", set)
	}
	t.Logf("%.0f allocations per request", n)
	if n > 1 {
		t.Fatalf("the handler allocates %.0f per request, over 1", n)
	}

	const rewritten = "GhIjKl-promoted"
	h = newAppHandler(func(context.Context, string, string, []byte) (servlet.Response, error) {
		return servlet.Response{Status: http.StatusOK, Cookie: rewritten}, nil
	})
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	set := w.Result().Cookies()
	if len(set) != 1 || set[0].Name != sessionCookie || set[0].Value != rewritten {
		t.Fatalf("a reply naming cookie %q sent Set-Cookie %q, want it once", rewritten, w.Header().Values("Set-Cookie"))
	}
}

// TestAppHandlerAnswersAMalformedCookieWith400 sends the application
// listener a session cookie that is not base64 and one whose id is 5
// bytes: the plug-in forwards each unparsed, and the engine answers 400,
// not a 502 for a router error.
func TestAppHandlerAnswersAMalformedCookieWith400(t *testing.T) {
	cluster, err := wls.New(wls.Options{Servers: 2, RealClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	deployDemoApp(cluster)
	cluster.AwaitConverged()
	app := httptest.NewServer(newAppHandler(cluster.ProxyPlugin("webserver:80").Route))
	defer app.Close()

	for _, cookie := range []string{
		"%%not-base64%%",
		servlet.Cookie{ID: "abcde", Primary: "server-1", Secondary: "server-2"}.Encode(),
	} {
		req, _ := http.NewRequest(http.MethodGet, app.URL+"/hello", nil)
		req.Header.Set("Cookie", sessionCookie+"="+cookie)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cookie %q: status %d, want 400", cookie, resp.StatusCode)
		}
	}
}
