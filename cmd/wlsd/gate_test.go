//go:build !race

package main

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"wls/internal/servlet"
)

// TestGateAppHandlerReadsTheCookieInPlace measures the application handler's
// allocations per request in front of a router that does nothing, with the
// session cookie among others: WLSESSION is taken from the Cookie header as
// a substring (servlet.CookieValue): 1 allocation per request here, where
// http.Request.Cookie, which parses every cookie of the request into an
// *http.Cookie, made it 3. The router names no new cookie, so no
// Set-Cookie is formatted (TestAppHandlerSessionCookie holds the cookies).
func TestGateAppHandlerReadsTheCookieInPlace(t *testing.T) {
	h := newAppHandler(func(context.Context, string, string, []byte) (servlet.Response, error) {
		return servlet.Response{Status: http.StatusOK}, nil
	})
	r := httptest.NewRequest(http.MethodGet, "/hello", nil)
	r.Header.Add("Cookie", "theme=dark; XWLSESSION=decoy; "+sessionCookie+"=AbCdEf-session_cookie; lang=en")
	w := httptest.NewRecorder()
	n := testing.AllocsPerRun(200, func() {
		w.Body.Reset()
		h.ServeHTTP(w, r)
	})
	t.Logf("%.0f allocations per request", n)
	if n > 1 {
		t.Fatalf("the handler allocates %.0f per request, over 1", n)
	}
}
