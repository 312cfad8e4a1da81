package servlet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"

	"wls/internal/attrs"
	"wls/internal/cluster"
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
	// serverName caches the (immutable) hosting server's name; self is its
	// bytes, a forwarded cookie's primary when the cookie's field leaves it
	// out (readSession).
	serverName string
	self       []byte
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
		self:       []byte(registry.Member().Name()),
		paths:      wire.NewInterner(256),
		servlets:   make(map[string]HandlerFunc),
	}
	e.sessions = newSessionManager(cfg.Sessions, ServiceName, registry.Member(), registry.Node(), cfg.DB)
	registry.Register(&rmi.Service{
		Name: ServiceName,
		Methods: e.sessions.ReplicaMethods(map[string]rmi.MethodSpec{
			"request": {Handler: e.handleRequest},
		}),
	})
	return e
}

// Sessions exposes the engine's session manager.
func (e *Engine) Sessions() *SessionManager { return e.sessions }

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
func (e *Engine) ServeCtx(ctx context.Context, path, cookie string, body []byte) Response {
	// URL rewriting (§3.2): a cookie-less client may carry the session
	// token in the path instead.
	if bare, urlTok := SplitURL(path); urlTok != "" {
		path = bare
		if cookie == "" {
			cookie = urlTok
		}
	}
	var buf CookieBuf
	c, err := ParseCookie(cookie, &buf)
	if err != nil {
		return e.badCookie()
	}
	resp, same := e.serve(ctx, path, &c, body)
	if same {
		resp.Cookie = cookie
	}
	return resp
}

func (e *Engine) badCookie() Response {
	return Response{Status: 400, Body: []byte("bad cookie"), ServedBy: e.serverName}
}

// serve is the common core behind ServeCtx and the RMI surface: resolve
// the session, run the servlet (through a pooled Request), replicate, and
// attach the response cookie — or report same: the cookie c was parsed from
// still holds, and the caller has it.
func (e *Engine) serve(ctx context.Context, path string, c *CookieRef, body []byte) (resp Response, same bool) {
	sess := e.sessions.resolve(ctx, c)
	if sp := trace.FromContext(ctx); sp != nil {
		sp.Annotate("session", cluster.IDString(sess.ID))
	}
	e.mu.Lock()
	h, ok := e.servlets[path]
	e.mu.Unlock()
	if !ok {
		releaseSession(sess)
		return Response{Status: 404, Body: []byte("no servlet at " + path), ServedBy: e.serverName}, false
	}
	req := requestPool.Get().(*Request)
	req.Path, req.Body, req.Session, req.Server = path, body, sess, e.serverName
	resp = h(req)
	*req = Request{}
	requestPool.Put(req)
	if resp.Status == 0 {
		resp.Status = 200
	}
	resp.Cookie, same = e.sessions.finish(ctx, sess, c)
	releaseSession(sess)
	resp.ServedBy = e.serverName
	return resp, same
}

// handleRequest is the RMI surface used by the presentation tier. Fields
// are decoded without copying (the body aliases the inbound frame, which is
// lent for the duration of the call and serialized out before return),
// the path is interned, and the session field is read in place: a field
// the engine cannot read is answered as a cookie it cannot parse, 400.
func (e *Engine) handleRequest(ctx context.Context, call *rmi.Call) ([]byte, error) {
	d := wire.NewDecoder(call.Args)
	pathB := d.BytesNoCopy()
	c, bad := readSession(d, e.self)
	body := d.BytesNoCopy()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if bad != nil {
		AppendResponse(call.Reply(), e.badCookie(), false)
		return nil, nil
	}
	path := e.paths.Intern(pathB)
	bare, urlTok := SplitURL(path)
	var resp Response
	same, sent := false, !c.empty()
	if urlTok != "" && !sent {
		// URL-rewritten token and no Cookie header (rare): the request sent
		// no cookie, so its reply names one, changed or not.
		resp = e.ServeCtx(ctx, path, "", body)
	} else {
		resp, same = e.serve(ctx, bare, &c, body)
	}
	// Encoded once, inside the RMI response envelope. resp.Body may alias
	// the inbound frame (an echo servlet): it is copied here, before the
	// node recycles that buffer.
	AppendResponse(call.Reply(), resp, same || !sent && resp.Cookie == "")
	return nil, nil
}

// AppendResponse serializes a Response for the RMI surface: status, body,
// then the cookie — unless it is the cookie the request carried (same). A
// session's cookie changes only on creation, promotion or a new secondary
// (and on a client-cookie write), so on every other reply the caller
// already holds it: the reply then ends after the body, and no cookie on
// the RMI surface means "the one you sent". A cookie that differs, the
// empty one of an error reply to a request that sent one included, travels
// in full, as text: it is what the browser gets. ServedBy is not written
// either: the caller called the server, and fills the field from
// rmi.Result.ServedBy.
func AppendResponse(enc *wire.Encoder, r Response, same bool) {
	enc.Int(r.Status)
	enc.Bytes2(r.Body)
	if !same {
		enc.String(r.Cookie)
	}
}

// DecodeResponseNoCopy reverses AppendResponse for the caller that sent the
// request with cookie sent and owns b (per the Node.Call contract): Body
// aliases b, and a cookie the reply left out is sent. ServedBy is left for
// the caller to take from the rmi result.
func DecodeResponseNoCopy(b []byte, sent string) (Response, error) {
	d := wire.NewDecoder(b)
	r := Response{Status: d.Int(), Body: d.BytesNoCopy(), Cookie: sent}
	if d.Remaining() > 0 {
		r.Cookie = d.String()
	}
	return r, d.Err()
}

// AppendRequest serializes a request for the RMI surface of the engine
// named callee into an existing encoder (the webtier routes through a
// pooled one, so the proxy hop allocates no request buffer): the path, the
// session field (appendSession) and the body. c is the request's cookie as
// ParseCookie read it, nil when it did not parse.
func AppendRequest(e *wire.Encoder, path string, c *CookieRef, callee string, body []byte) {
	e.String(path)
	appendSession(e, c, callee)
	e.Bytes2(body)
}

// The session field of a routed request is the cookie its router parsed,
// in binary: base64 is for the browser, the hop is binary. A flag byte says
// what follows. 0 is no cookie and fwdBad one that did not parse; anything
// else is fwdCookie and the parts it lists, in this order: the 16-byte id
// (fwdID), the secondary's name, the primary's name (fwdPrimary: only when
// the callee is not the primary, the Fig 2 failover case), and the
// client-cookie state as an attribute list (fwdState).
const (
	fwdCookie = 1 << iota
	fwdID
	fwdPrimary
	fwdState
	fwdBad
)

var errSessionField = errors.New("servlet: malformed session field")

// empty reports whether c names nothing: no cookie was sent.
func (c *CookieRef) empty() bool {
	return len(c.ID) == 0 && len(c.Primary) == 0 && len(c.Secondary) == 0 && len(c.State) == 0
}

func appendSession(e *wire.Encoder, c *CookieRef, callee string) {
	switch {
	case c == nil:
		e.Byte(fwdBad)
		return
	case c.empty():
		e.Byte(0)
		return
	}
	flag := byte(fwdCookie)
	if len(c.ID) > 0 {
		flag |= fwdID
	}
	if string(c.Primary) != callee {
		flag |= fwdPrimary
	}
	if len(c.State) > 0 {
		flag |= fwdState
	}
	e.Byte(flag)
	e.RawBytes(c.ID)
	e.Bytes2(c.Secondary)
	if flag&fwdPrimary != 0 {
		e.Bytes2(c.Primary)
	}
	if flag&fwdState != 0 {
		e.RawBytes(c.State)
	}
}

// readSession reads a session field for the engine whose name is self,
// without copying: the id, the names and the state alias d's buffer, and a
// primary the field leaves out is self.
func readSession(d *wire.Decoder, self []byte) (CookieRef, error) {
	flag := d.Byte()
	switch {
	case d.Err() != nil:
		return CookieRef{}, d.Err()
	case flag == 0:
		return CookieRef{}, nil
	case flag&fwdCookie == 0 || flag&^(fwdCookie|fwdID|fwdPrimary|fwdState) != 0:
		return CookieRef{}, errSessionField
	}
	var c CookieRef
	if flag&fwdID != 0 {
		c.ID = d.Raw(cluster.IDLen)
	}
	c.Secondary, c.Primary = d.BytesNoCopy(), self
	if flag&fwdPrimary != 0 {
		c.Primary = d.BytesNoCopy()
	}
	if flag&fwdState != 0 {
		state, err := attrs.Read(d, false)
		if err != nil {
			return CookieRef{}, err
		}
		if attrs.Len(state) > 0 {
			c.State = state
		}
	}
	if err := d.Err(); err != nil {
		return CookieRef{}, err
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// net/http adapter (for real deployments via cmd/wlsd)

// MaxHTTPBody bounds the request body the net/http adapters accept; a
// larger one is answered 413.
const MaxHTTPBody = 1 << 20

// ReadHTTPBody reads the body of r, at most MaxHTTPBody bytes of it. When
// ok is false the error reply (413 for a body over the bound, 400 for one
// that could not be read) has been written and the handler is done.
func ReadHTTPBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	if r.Body == nil || r.ContentLength == 0 {
		return nil, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxHTTPBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return nil, false
	}
	return body, true
}

// WriteHTTPResponse writes resp as the HTTP reply: the session cookie under
// cookieName when there is one, the serving engine in X-Served-By, status
// and body. The error is the body write's: the client has gone away.
func WriteHTTPResponse(w http.ResponseWriter, cookieName string, resp Response) error {
	if resp.Cookie != "" {
		http.SetCookie(w, &http.Cookie{Name: cookieName, Value: resp.Cookie, Path: "/"})
	}
	w.Header().Set("X-Served-By", resp.ServedBy)
	w.WriteHeader(resp.Status)
	_, err := w.Write(resp.Body)
	return err
}

// CookieValue returns the value of the cookie called name in h's Cookie
// headers, "" when there is none: the first match, across repeated
// headers, with one pair of surrounding double quotes taken off, as
// http.Request.Cookie reads it. The value is a substring of the header, so
// nothing is allocated, where Request.Cookie parses every cookie of the
// request into an *http.Cookie.
func CookieValue(h http.Header, name string) string {
	for _, line := range h["Cookie"] {
		for line != "" {
			var part string
			part, line, _ = strings.Cut(line, ";")
			k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || k != name {
				continue
			}
			if len(v) > 1 && v[0] == '"' && v[len(v)-1] == '"' {
				v = v[1 : len(v)-1]
			}
			return v
		}
	}
	return ""
}
