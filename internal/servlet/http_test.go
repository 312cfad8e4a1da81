package servlet_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wls/internal/servlet"
	"wls/internal/simtest"
)

// TestHTTPHandlerAdapter drives the engine through net/http with real
// cookies, the deployment surface cmd/wlsd uses.
func TestHTTPHandlerAdapter(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	e := servlet.NewEngine(f.Servers[0].Registry, servlet.Config{})
	e.Handle("/count", counterServlet)
	srv := httptest.NewServer(e.HTTPHandler("WLSESSION"))
	defer srv.Close()

	jar := map[string]string{}
	get := func(path string) (int, string) {
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		if v, ok := jar["WLSESSION"]; ok {
			req.AddCookie(&http.Cookie{Name: "WLSESSION", Value: v})
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		for _, c := range resp.Cookies() {
			jar[c.Name] = c.Value
		}
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	status, body := get("/count")
	if status != 200 || body != "1" {
		t.Fatalf("first: %d %q", status, body)
	}
	if jar["WLSESSION"] == "" {
		t.Fatal("no session cookie set")
	}
	_, body = get("/count")
	if body != "2" {
		t.Fatalf("second: %q (cookie not honoured)", body)
	}
	status, _ = get("/nope")
	if status != 404 {
		t.Fatalf("status for unknown path = %d", status)
	}
}

func TestHTTPHandlerServedByHeader(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	e := servlet.NewEngine(f.Servers[0].Registry, servlet.Config{})
	e.Handle("/x", func(r *servlet.Request) servlet.Response {
		return servlet.Response{Body: []byte("ok")}
	})
	srv := httptest.NewServer(e.HTTPHandler(""))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Served-By"); !strings.HasPrefix(got, "server-") {
		t.Fatalf("X-Served-By = %q", got)
	}
}

// TestHTTPHandlerBoundedBody: the adapter hands the servlet the POST body,
// up to MaxHTTPBody, and answers 413 to anything longer.
func TestHTTPHandlerBoundedBody(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	e := servlet.NewEngine(f.Servers[0].Registry, servlet.Config{})
	e.Handle("/echo", func(r *servlet.Request) servlet.Response {
		return servlet.Response{Body: r.Body}
	})
	srv := httptest.NewServer(e.HTTPHandler(""))
	defer srv.Close()

	full := bytes.Repeat([]byte{'x'}, servlet.MaxHTTPBody)
	for _, tc := range []struct {
		body []byte
		want int
	}{{[]byte("small"), 200}, {nil, 200}, {full, 200}, {append(full, 'y'), 413}} {
		resp, err := srv.Client().Post(srv.URL+"/echo", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want || (tc.want == 200 && !bytes.Equal(got, tc.body)) {
			t.Fatalf("%d-byte body: status %d (want %d), %d bytes back", len(tc.body), resp.StatusCode, tc.want, len(got))
		}
	}
}

// TestCookieValue holds servlet.CookieValue to http.Request.Cookie on the
// shapes a Cookie header takes: one value among several, repeated headers,
// a quoted value, a name that ends in the one asked for, and none at all.
func TestCookieValue(t *testing.T) {
	for _, tc := range []struct {
		headers []string
		want    string
	}{
		{[]string{"WLSESSION=abc"}, "abc"},
		{[]string{"theme=dark; WLSESSION=abc; lang=en"}, "abc"},
		{[]string{"theme=dark;WLSESSION=abc"}, "abc"},
		{[]string{"theme=dark", "lang=en; WLSESSION=abc"}, "abc"},
		{[]string{"WLSESSION=first", "WLSESSION=second"}, "first"},
		{[]string{`WLSESSION="quoted-value"`}, "quoted-value"},
		{[]string{"XWLSESSION=decoy"}, ""},
		{[]string{"XWLSESSION=decoy; WLSESSION=abc"}, "abc"},
		{[]string{"WLSESSION="}, ""},
		{[]string{"theme=dark; lang=en"}, ""},
		{nil, ""},
	} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		for _, h := range tc.headers {
			r.Header.Add("Cookie", h)
		}
		got := servlet.CookieValue(r.Header, "WLSESSION")
		var std string
		if c, err := r.Cookie("WLSESSION"); err == nil {
			std = c.Value
		}
		if got != tc.want || got != std {
			t.Errorf("Cookie %q: CookieValue %q, Request.Cookie %q, want %q", tc.headers, got, std, tc.want)
		}
	}
}
