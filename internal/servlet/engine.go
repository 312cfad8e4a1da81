package servlet

import (
	"context"

	"net/http"
	"sync"

	"wls/internal/rmi"
	"wls/internal/store"
	"wls/internal/trace"
	"wls/internal/wire"
)

// ServiceName is the RMI service every servlet engine exposes; presentation
// tier processes (web servers, proxy plug-ins) route requests to it.
const ServiceName = "wls.http"

// Request is one servlet invocation.
//
// Requests are pooled by the engine: a HandlerFunc must not retain the
// *Request, its Body, or its Session after returning (copy anything that
// must outlive the request; returning a Response whose Body aliases the
// request Body is fine — the engine serializes the response before the
// buffers are recycled).
//
//wls:pooled
type Request struct {
	// Path selects the servlet.
	Path string
	// Body is the request payload.
	Body []byte
	// Session is the resolved session (never nil).
	Session *Session
	// Server is the engine's server name (handy for test assertions about
	// routing).
	Server string
}

var requestPool = sync.Pool{New: func() any { return new(Request) }}

// Response is a servlet's result.
type Response struct {
	Status int
	Body   []byte
	// Cookie is set by the engine, not by servlets.
	Cookie string
	// ServedBy records the engine that ran the servlet.
	ServedBy string
}

// HandlerFunc is a servlet.
type HandlerFunc func(r *Request) Response

// Engine is one server's servlet container.
type Engine struct {
	registry *rmi.Registry
	sessions *SessionManager
	// serverName caches the (immutable) hosting server's name.
	serverName string
	// paths interns request paths decoded off the wire so repeat requests
	// to the same servlet never materialize a fresh path string.
	paths *wire.Interner

	mu       sync.Mutex
	servlets map[string]HandlerFunc
}

// Config configures an engine.
type Config struct {
	// Sessions selects the session-state option (§3.2).
	Sessions SessionMode
	// DB is required for SessionsPersistent.
	DB *store.Store
}

// NewEngine builds a servlet engine on a server's registry and advertises
// it cluster-wide.
func NewEngine(registry *rmi.Registry, cfg Config) *Engine {
	e := &Engine{
		registry:   registry,
		serverName: registry.Member().Name(),
		paths:      wire.NewInterner(256),
		servlets:   make(map[string]HandlerFunc),
	}
	e.sessions = newSessionManager(cfg.Sessions, ServiceName, registry.Member(), registry.Node(), cfg.DB)
	registry.Register(&rmi.Service{
		Name: ServiceName,
		Methods: map[string]rmi.MethodSpec{
			"request": {Handler: e.handleRequest},
			// Session replication is cluster infrastructure: denying a
			// primary's ship under load would silently strand secondaries,
			// so replication bypasses admission (System) while the "request"
			// path above is subject to it.
			"session.update.batch": {System: true, Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				return nil, e.sessions.handleUpdateBatch(c.Args)
			}},
			"session.fetch": {System: true, Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				return e.sessions.handleFetch(c.Args)
			}},
		},
	})
	return e
}

// Sessions exposes the engine's session manager.
func (e *Engine) Sessions() *SessionManager { return e.sessions }

// ServerName returns the hosting server's name.
func (e *Engine) ServerName() string { return e.serverName }

// Handle registers a servlet at a path.
func (e *Engine) Handle(path string, h HandlerFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.servlets[path] = h
}

// Serve processes one request locally: resolve the session, run the
// servlet, replicate/persist the session, return the (possibly rewritten)
// cookie.
func (e *Engine) Serve(path, cookie string, body []byte) Response {
	return e.ServeCtx(context.Background(), path, cookie, body)
}

// ServeCtx is Serve with a caller context. When ctx carries a trace span
// (the RMI surface's server span, typically), session replication and
// fetch traffic runs under child spans and carries the trace to the
// replica servers.
//
//wls:hotpath
func (e *Engine) ServeCtx(ctx context.Context, path, cookie string, body []byte) Response {
	// URL rewriting (§3.2): a cookie-less client may carry the session
	// token in the path instead.
	if bare, urlTok := SplitURL(path); urlTok != "" {
		path = bare
		if cookie == "" {
			cookie = urlTok
		}
	}
	c, err := DecodeCookie(cookie)
	if err != nil {
		return Response{Status: 400, Body: []byte("bad cookie"), ServedBy: e.serverName}
	}
	return e.serve(ctx, path, c, body)
}

// serve is the common core behind ServeCtx and the RMI surface: resolve
// the session, run the servlet (through a pooled Request), replicate, and
// attach the response cookie.
//
//wls:hotpath
func (e *Engine) serve(ctx context.Context, path string, c Cookie, body []byte) Response {
	sess := e.sessions.resolve(ctx, c)
	if sp := trace.FromContext(ctx); sp != nil {
		sp.Annotate("session", sess.ID)
	}
	e.mu.Lock()
	h, ok := e.servlets[path]
	e.mu.Unlock()
	if !ok {
		releaseSession(sess)
		return Response{Status: 404, Body: []byte("no servlet at " + path), ServedBy: e.serverName}
	}
	req := requestPool.Get().(*Request)
	req.Path, req.Body, req.Session, req.Server = path, body, sess, e.serverName
	resp := h(req)
	*req = Request{}
	requestPool.Put(req)
	if resp.Status == 0 {
		resp.Status = 200
	}
	resp.Cookie = e.sessions.finish(ctx, sess)
	releaseSession(sess)
	resp.ServedBy = e.serverName
	return resp
}

// handleRequest is the RMI surface used by the presentation tier. Fields
// are decoded without copying (the body aliases the inbound frame, which is
// lent for the duration of the call and serialized out before return),
// the path is interned, and repeat cookies resolve through the decode
// cache directly from the wire bytes.
//
//wls:hotpath
func (e *Engine) handleRequest(ctx context.Context, call *rmi.Call) ([]byte, error) {
	d := wire.NewDecoder(call.Args)
	pathB := d.BytesNoCopy()
	cookieB := d.BytesNoCopy()
	body := d.BytesNoCopy()
	if err := d.Err(); err != nil {
		return nil, err
	}
	path := e.paths.Intern(pathB)
	var c Cookie
	var err error
	if bare, urlTok := SplitURL(path); urlTok != "" {
		// URL-rewritten token (rare): fall back to the string path.
		path = bare
		if len(cookieB) == 0 {
			c, err = DecodeCookie(urlTok)
		} else {
			c, err = DecodeCookieBytes(cookieB)
		}
	} else {
		c, err = DecodeCookieBytes(cookieB)
	}
	var resp Response
	if err != nil {
		resp = Response{Status: 400, Body: []byte("bad cookie"), ServedBy: e.serverName}
	} else {
		resp = e.serve(ctx, path, c, body)
	}
	// Encoded once, inside the RMI response envelope. resp.Body may alias
	// the inbound frame (an echo servlet): it is copied here, before the
	// node recycles that buffer.
	AppendResponse(call.Reply(), resp)
	return nil, nil
}

// AppendResponse serializes a Response for the RMI surface. ServedBy is
// not written: the rmi envelope around the reply already names the server
// (rmi.Result.ServedBy), and the caller fills the field from there.
func AppendResponse(enc *wire.Encoder, r Response) {
	enc.Int(r.Status)
	enc.String(r.Cookie)
	enc.Bytes2(r.Body)
}

// DecodeResponseNoCopy reverses AppendResponse for callers that own b (per
// the Node.Call contract): Body aliases b and the cookie resolves through
// the decode cache (returning its canonical string). ServedBy is left for
// the caller to take from the rmi result.
func DecodeResponseNoCopy(b []byte) (Response, error) {
	d := wire.NewDecoder(b)
	r := Response{Status: d.Int()}
	cookieB := d.BytesNoCopy()
	r.Body = d.BytesNoCopy()
	if c, ok := cachedCookie(cookieB); ok && c.raw != "" {
		r.Cookie = c.raw
	} else {
		r.Cookie = string(cookieB)
	}
	return r, d.Err()
}

// AppendRequest serializes a request for the RMI surface into an existing
// encoder (the webtier routes through a pooled one, so the proxy hop
// allocates no request buffer).
func AppendRequest(e *wire.Encoder, path, cookie string, body []byte) {
	e.String(path)
	e.String(cookie)
	e.Bytes2(body)
}

// ---------------------------------------------------------------------------
// net/http adapter (for real deployments via cmd/wlsd)

// HTTPHandler adapts the engine to net/http: the session cookie rides in
// the standard Cookie header under the given name.
func (e *Engine) HTTPHandler(cookieName string) http.Handler {
	if cookieName == "" {
		cookieName = "WLSESSION"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var cookie string
		if c, err := r.Cookie(cookieName); err == nil {
			cookie = c.Value
		}
		body := make([]byte, 0)
		if r.Body != nil {
			buf := make([]byte, 1<<16)
			for {
				n, err := r.Body.Read(buf)
				body = append(body, buf[:n]...)
				if err != nil {
					break
				}
			}
		}
		resp := e.Serve(r.URL.Path, cookie, body)
		if resp.Cookie != "" {
			http.SetCookie(w, &http.Cookie{Name: cookieName, Value: resp.Cookie, Path: "/"})
		}
		w.Header().Set("X-Served-By", resp.ServedBy)
		w.WriteHeader(resp.Status)
		_, _ = w.Write(resp.Body)
	})
}
