package servlet

import (
	"net/http"
)

// ServerName returns the hosting server's name.
func (e *Engine) ServerName() string { return e.serverName }

// HTTPHandler adapts the engine to net/http: the session cookie rides in
// the standard Cookie header under the given name.
func (e *Engine) HTTPHandler(cookieName string) http.Handler {
	if cookieName == "" {
		cookieName = "WLSESSION"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cookie := CookieValue(r.Header, cookieName)
		body, ok := ReadHTTPBody(w, r)
		if !ok {
			return
		}
		// A failed write means the client left; there is no one to tell.
		_ = WriteHTTPResponse(w, cookieName, e.ServeCtx(r.Context(), r.URL.Path, cookie, body))
	})
}

// Renders reports the total number of render-function invocations — the
// work the cache saves.
func (pc *PageCache) Renders() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.renders
}

// Flush drops every cached page and fragment.
func (pc *PageCache) Flush() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries = make(map[string]pageEntry)
}
