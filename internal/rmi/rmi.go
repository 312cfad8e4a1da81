// Package rmi implements the cluster-aware remote method invocation layer
// of §2.2/§3.1: "The WebLogic RMI stub for a service obtains information
// about which members of the cluster are actively offering the service and
// uses it to make load balancing and failover decisions. The algorithm for
// obtaining this information and making these decisions is pluggable."
//
// A Registry runs on every server: it holds the local service
// implementations, dispatches inbound request frames to them, and
// advertises deployed services through cluster membership heartbeats. A
// Stub is the client side: it consults a View (live membership for internal
// clients, a periodically refreshed cached copy for external clients),
// picks a target with a pluggable Policy, and fails over according to the
// paper's rule — an operation is retried only when it is guaranteed to have
// had no side effects (the request never reached a server, the service was
// not deployed there) or when the method is declared idempotent.
package rmi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"wls/internal/cluster"
	"wls/internal/metrics"
	"wls/internal/trace"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// Node is the transport endpoint the registry and stubs ride on. Both
// netsim.Endpoint and transport.Transport satisfy it.
//
// Errors: an error from Call that satisfies errors.Is(err, wire.ErrNotRun)
// proves that no handler ran for the request; any other error means it may
// have run. A node never sends a request twice — whether to send it again
// is the stub's decision (see Stub.mayFailOver).
//
// Contract — one ownership rule, the same on both fabrics: a frame body
// belongs to whoever produced it until the node has copied it to the
// delivery edge. Call copies f.Body before it returns, so stubs encode
// requests into pooled buffers and release them right after. The
// handler is lent the inbound body for the duration of the call, and the
// frame it returns stays its own until the node has copied the body out
// and released it (see wire.Handler), so a response may be pooled and may
// alias the request. The Body of the frame Call returns is that one copy,
// owned by the caller: stubs decode it in place and hand out sub-slices.
type Node interface {
	Addr() string
	Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error)
	SetHandler(h wire.Handler)
}

// Errors surfaced by stubs.
var (
	// ErrNoServers means no live cluster member offers the service.
	ErrNoServers = errors.New("rmi: no servers offer the service")
	// ErrNotRetryable wraps a failure that occurred after the request may
	// have had side effects on a non-idempotent method.
	ErrNotRetryable = errors.New("rmi: failed after possible side effects")
)

// AppError is an error returned by the service implementation itself (as
// opposed to a system/transport failure). Application errors never trigger
// failover — the request executed.
type AppError struct{ Msg string }

func (e *AppError) Error() string { return e.Msg }

// IsAppError reports whether err is an application-level error.
func IsAppError(err error) bool {
	var ae *AppError
	return errors.As(err, &ae)
}

// NotDeployedError reports that the target server answered but does not
// deploy the requested service or method (a stale view). The request
// definitely had no side effects, so stubs fail over freely.
type NotDeployedError struct{ Msg string }

func (e *NotDeployedError) Error() string { return e.Msg }

// Is makes a not-deployed reply satisfy wire.ErrNotRun.
func (e *NotDeployedError) Is(target error) bool { return target == wire.ErrNotRun }

// Call carries one inbound invocation to a service method.
//
// The registry recycles Call objects through a pool: a handler must not
// retain the *Call, its Args, or any sub-slice of Args after it returns
// (copy what must outlive the call). Args aliases the inbound frame body,
// which the node recycles once the response has been copied out.
type Call struct {
	// From is the advertised address of the calling server (or client).
	From string
	// Service and Method name what is being invoked.
	Service, Method string
	// Args is the wire-encoded argument payload.
	Args []byte
	// TxID is the propagated transaction identifier, empty outside any
	// transaction.
	TxID string
	// ConvID is the propagated conversation/session identifier, empty for
	// stateless calls.
	ConvID string

	// reply is the response frame's encoder (set by execute); replyMark is
	// non-zero once Reply has opened the result field in it.
	reply     *wire.Encoder
	replyMark int
}

// Reply returns the encoder the response envelope is being built in,
// positioned inside the result field. A handler that appends its result
// there, instead of returning a []byte for the registry to copy in, returns
// (nil, nil); a returned error or body discards whatever was written.
func (c *Call) Reply() *wire.Encoder {
	if c.replyMark == 0 {
		c.reply.Byte(respOK)
		c.replyMark = c.reply.BeginBytes()
	}
	return c.reply
}

// Handler implements one service method. Returning an error of type
// *AppError reports an application failure to the caller; any other error
// is reported as a system failure.
type Handler func(ctx context.Context, call *Call) ([]byte, error)

// MethodSpec describes one method of a service.
type MethodSpec struct {
	Handler Handler
	// Idempotent declares that the method may be safely retried on another
	// server even after it may have executed (§3.1).
	Idempotent bool
	// System exempts the method from execute-queue admission: cluster
	// infrastructure (session replication, lease renewal, transaction
	// coordination, health probes) is small, bounded work whose denial
	// under load would destabilize the cluster rather than protect it —
	// the equivalent of WebLogic's dedicated system execute queues.
	System bool

	// name is the canonical method name, resolved at Register time so the
	// dispatch path can populate Call.Method without converting the wire
	// bytes to a fresh string.
	name string
}

// Service is a named set of methods.
type Service struct {
	Name    string
	Methods map[string]MethodSpec
	// System marks every method of the service as cluster infrastructure,
	// exempt from execute-queue admission (see MethodSpec.System).
	System bool

	// requests counts inbound calls for this service. Register resolves
	// it once so the per-request path never rebuilds the metric name
	// ("rmi.requests."+Name allocates on every call otherwise).
	requests *metrics.Counter
}

// ---------------------------------------------------------------------------
// Wire encoding of requests and responses.

const (
	respOK byte = iota
	respAppError
	respSystemError
	respNoSuchService // definitely no side effects: safe to fail over
	respBusy          // admission refused (queue full / budget expired): no side effects
)

// The request wire format is: service and method as names (see names.go:
// a one-byte code for the system's own, spelled out otherwise), txID and
// convID as length-prefixed strings, then the args payload, then the
// optional deadline block and trace envelope. Stub.callOne encodes it field
// by field into a pooled encoder; handle decodes it in place below.

// callPool recycles server-side Call objects. handle acquires one per
// request and releases it after the handler's response frame is built
// (handlers must not retain the Call — see the Call doc comment).
var callPool = sync.Pool{New: func() any { return new(Call) }}

func releaseCall(c *Call) {
	*c = Call{}
	callPool.Put(c)
}

// The response wire format is the status byte, then on OK the result as a
// length-prefixed field, and otherwise the error message as a
// length-prefixed string. A reply does not name its server: the caller chose
// it (Stub fills Result.ServedBy and BusyError.Server from the candidate it
// called), so no served-by means the server you called.

// errorFrame builds a failure response in a pooled frame, which the node
// releases after copying the body out (see the Node contract).
func errorFrame(corr uint64, status byte, errMsg string) *wire.Frame {
	fr := wire.AcquireFrame()
	e := fr.Encoder()
	e.Byte(status)
	e.String(errMsg)
	fr.Kind, fr.Corr, fr.Body = wire.KindResponse, corr, e.Bytes()
	return fr
}

type response struct {
	status byte
	errMsg string
	body   []byte
}

// errTrailingBytes reports a reply that goes on past its last field.
var errTrailingBytes = errors.New("rmi: trailing bytes after the reply")

// decodeResponse decodes without copying: body aliases b, which is safe
// because Node.Call hands the caller an owned response body (see the Node
// contract). Only a failure carries a message, so the happy path converts
// no string.
func decodeResponse(b []byte) (response, error) {
	d := wire.NewDecoder(b)
	r := response{status: d.Byte()}
	if r.status == respOK {
		r.body = d.BytesNoCopy()
	} else {
		r.errMsg = d.String()
	}
	if d.Err() == nil && d.Remaining() > 0 {
		return r, errTrailingBytes
	}
	return r, d.Err()
}

// ---------------------------------------------------------------------------
// Registry (server side)

// Registry dispatches inbound invocations on one server and advertises its
// services cluster-wide.
type Registry struct {
	node   Node
	member *cluster.Member
	reg    *metrics.Registry
	clock  vclock.Clock
	// tracer continues inbound traces (atomic: it is wired after the
	// handler is installed, and frames may already be arriving).
	tracer atomic.Pointer[trace.Tracer]
	// gate, when set, is the execute queue all non-system requests pass
	// through (atomic for the same wiring-order reason as tracer).
	gate atomic.Pointer[Gate]

	// requests counts all inbound calls; resolved once at construction
	// to keep metric lookups off the per-request path.
	requests *metrics.Counter
	// busy counts BUSY responses sent (admission denials + expiries).
	busy *metrics.Counter
	// panics counts handlers that panicked (see execute).
	panics *metrics.Counter

	mu       sync.Mutex
	services map[string]*Service
}

// NewRegistry installs a registry as the node's frame handler. Frames that
// are not RMI requests fall through to the handler previously installed on
// the node, so multiple subsystems can share one node.
func NewRegistry(node Node, member *cluster.Member, reg *metrics.Registry) *Registry {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Registry{
		node:     node,
		member:   member,
		reg:      reg,
		clock:    member.Clock(),
		requests: reg.Counter("rmi.requests"),
		busy:     reg.Counter("rmi.busy"),
		panics:   reg.Counter("rmi.handler_panics"),
		services: make(map[string]*Service),
	}
	node.SetHandler(r.handle)
	r.registerBuiltins()
	return r
}

// Node returns the underlying transport node.
func (r *Registry) Node() Node { return r.node }

// Member returns the cluster member this registry advertises through.
func (r *Registry) Member() *cluster.Member { return r.member }

// Metrics returns the server's metrics registry.
func (r *Registry) Metrics() *metrics.Registry { return r.reg }

// SetTracer installs the tracer that continues traces arriving in request
// envelopes. A nil tracer (the default) disables server-side spans.
func (r *Registry) SetTracer(t *trace.Tracer) { r.tracer.Store(t) }

// SetGate admits all non-system inbound requests through g, on the
// goroutine that delivered them. A nil g (the default) admits everything.
func (r *Registry) SetGate(g *Gate) { r.gate.Store(g) }

// Register deploys a service on this server and advertises it.
func (r *Registry) Register(s *Service) {
	// Resolve the per-service counter before the service becomes
	// reachable: handle reads it without holding r.mu.
	s.requests = r.reg.Counter("rmi.requests." + s.Name)
	// Resolve canonical method names so dispatch can fill Call.Method
	// without allocating a string from the wire bytes.
	for k, ms := range s.Methods {
		ms.name = k
		s.Methods[k] = ms
	}
	r.mu.Lock()
	r.services[s.Name] = s
	r.mu.Unlock()
	r.member.Advertise(s.Name)
}

// Unregister undeploys a service and withdraws its advertisement.
//
//wls:nolint unreached -- test hook: TestFailureClassesOnBothFabrics
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	delete(r.services, name)
	r.mu.Unlock()
	r.member.Withdraw(name)
}

// handle is the node frame handler. The request fields are decoded
// in place: service and method resolve through no-allocation map lookups
// on the table's bytes or the spelled name's, the Call comes from a pool,
// and its Args alias the frame body (both node implementations hand the
// handler an owned body for the duration of the call, and handlers must
// not retain it).
func (r *Registry) handle(from string, f wire.Frame) *wire.Frame {
	if f.Kind != wire.KindRequest {
		return nil
	}
	d := wire.NewDecoder(f.Body)
	svcB := readName(d)
	methB := readName(d)
	txB := d.BytesNoCopy()
	convB := d.BytesNoCopy()
	argsB := d.BytesNoCopy()
	// Both parsers pass on an error the field decodes above left in d.
	remaining, hasBudget, err := parseDeadline(d)
	var sc trace.SpanContext
	if err == nil {
		sc, err = trace.ParseEnvelope(d)
	}
	if err != nil || svcB == nil || methB == nil {
		return errorFrame(f.Corr, respSystemError, "malformed request")
	}

	r.mu.Lock()
	svc, ok := r.services[string(svcB)] // compiler-recognized no-alloc lookup
	r.mu.Unlock()
	if !ok {
		return errorFrame(f.Corr, respNoSuchService, "no such service: "+string(svcB))
	}
	m, ok := svc.Methods[string(methB)]
	if !ok {
		return errorFrame(f.Corr, respNoSuchService, "no such method: "+string(svcB)+"."+string(methB))
	}

	// Re-derive the caller's budget against this server's clock. Work that
	// arrives already expired is refused before counting as a request: the
	// caller stopped waiting, so executing it would be pure waste (and BUSY
	// truthfully promises no side effects).
	ctx := context.Background()
	var budget Budget
	if hasBudget {
		if remaining <= 0 {
			return r.busyFrame(f.Corr, "deadline expired on arrival")
		}
		budget = Budget{clock: r.clock, deadline: r.clock.Now().Add(remaining)}
		ctx = context.WithValue(ctx, budgetKey{}, budget)
	}

	r.requests.Inc()
	svc.requests.Inc()

	call := callPool.Get().(*Call)
	call.From = from
	call.Service = svc.Name // canonical strings: no conversion of wire bytes
	call.Method = m.name
	call.Args = argsB
	if len(txB) > 0 {
		call.TxID = string(txB)
	}
	if len(convB) > 0 {
		call.ConvID = string(convB)
	}

	g := r.gate.Load()
	if m.System || svc.System {
		g = nil
	}
	return r.execute(ctx, g, f.Corr, call, sc, m, budget)
}

func (r *Registry) busyFrame(corr uint64, msg string) *wire.Frame {
	r.busy.Inc()
	return errorFrame(corr, respBusy, msg)
}

// execute admits one request through g, when there is one, runs its
// handler and encodes the response — once: the handler either returns its
// result, which is appended to the envelope, or has already written it
// inside the envelope through call.Reply. A refused request gets BUSY and
// never runs; one whose handler panics gets a system error (see panicked).
// Either way the Call goes back to the pool.
func (r *Registry) execute(ctx context.Context, g *Gate, corr uint64,
	call *Call, sc trace.SpanContext, m MethodSpec, budget Budget) (out *wire.Frame) {
	var fr *wire.Frame
	var span *trace.Span
	defer func() {
		// A handler that panics fails its own request, not the server.
		if p := recover(); p != nil {
			out = r.panicked(corr, fr, call, span, p)
		}
		releaseCall(call)
	}()
	if g != nil {
		if err := g.Admit(budget); err != nil {
			return r.busyFrame(corr, err.Error())
		}
		defer g.Done()
	}
	fr = wire.AcquireFrame()
	e := fr.Encoder()
	call.reply = e
	if tr := r.tracer.Load(); tr != nil && sc.Sampled {
		ctx, span = tr.StartRemote(ctx, sc, "rmi.serve "+call.Service+"."+call.Method, trace.KindServer)
		span.Annotate("from", call.From)
	}
	body, err := m.Handler(ctx, call)
	if span != nil {
		span.SetError(err)
		span.Finish()
	}
	if err == nil && body == nil && call.replyMark != 0 {
		e.EndBytes(call.replyMark)
	} else {
		e.Reset()
		if err == nil {
			e.Byte(respOK)
			e.Bytes2(body)
		} else {
			status := respSystemError
			if IsAppError(err) {
				status = respAppError
			}
			e.Byte(status)
			e.String(err.Error())
		}
	}
	fr.Kind, fr.Corr, fr.Body = wire.KindResponse, corr, e.Bytes()
	return fr
}

// panicked answers a request whose handler panicked with a system error
// in the reply frame fr (nil if the panic came before it was acquired),
// counts it, and finishes its span. The handler may have changed state
// before it panicked, so the answer is never ErrNotRun: a stub fails over
// only an idempotent method.
func (r *Registry) panicked(corr uint64, fr *wire.Frame, call *Call, span *trace.Span, p any) *wire.Frame {
	r.panics.Inc()
	err := fmt.Errorf("rmi: %s.%s failed after possible side effects: handler panicked: %v", call.Service, call.Method, p)
	if span != nil {
		span.SetError(err)
		span.Finish()
	}
	if fr == nil {
		return errorFrame(corr, respSystemError, err.Error())
	}
	e := fr.Encoder()
	e.Reset()
	e.Byte(respSystemError)
	e.String(err.Error())
	fr.Kind, fr.Corr, fr.Body = wire.KindResponse, corr, e.Bytes()
	return fr
}

// ---------------------------------------------------------------------------
// Views

// View supplies the candidate servers currently offering a service. The
// internal view reads live membership; the external view reads a cached
// copy (§2.2).
type View interface {
	// Candidates returns members offering the service, in ring order.
	Candidates(service string) []cluster.MemberInfo
	// LocalName returns the name of the local server, or "" for external
	// clients (used by the local-preference policy).
	LocalName() string
}

// MemberView is the internal-client view backed directly by live
// membership.
type MemberView struct{ Member *cluster.Member }

// Candidates implements View.
func (v MemberView) Candidates(service string) []cluster.MemberInfo {
	return v.Member.OffersOf(service)
}

// LocalName implements View.
func (v MemberView) LocalName() string { return v.Member.Name() }
