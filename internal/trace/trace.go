// Package trace is the distributed request-tracing subsystem: spans with
// trace/span/parent identity, annotations, and kinds, propagated across
// servers via a small envelope appended to the RMI method envelope (see
// internal/rmi). It exists to make the paper's load-bearing concentration
// claim (§2.1, §3.1 — "process each request on as few servers as
// possible") directly observable: a finished trace says exactly which
// servers a request touched and how many cross-server hops it took.
//
// Determinism rules (so traces are byte-identical per seed in simulation):
//
//   - All timestamps come from the tracer's vclock.Clock; under a virtual
//     clock they are exact simulated instants.
//   - Trace IDs are (origin-server hash, per-tracer root sequence); span
//     IDs are (origin-server hash, per-tracer span sequence). No global
//     state, no wall clock, no math/rand.
//   - Sampling is counter-based (every Nth root), never random.
//
// Two runs that create roots and spans in the same order on each server
// therefore produce identical identifiers; CanonicalDump sorts the result
// into a stable byte-for-byte comparable form.
//
// The disabled path is free: a nil *Tracer starts no roots, a context
// without a span starts no children, and every *Span method is a no-op on
// a nil receiver — all without allocating.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/vclock"
)

// TraceID identifies one end-to-end request tree across servers.
type TraceID struct {
	// Hi is a hash of the origin server that started the root span.
	Hi uint64
	// Lo is the origin server's root sequence number (1-based).
	Lo uint64
}

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the ID as 32 hex digits.
func (t TraceID) String() string { return fmt.Sprintf("%016x%016x", t.Hi, t.Lo) }

// SpanID identifies one span within a trace. The high 32 bits hash the
// server that created the span, the low 32 bits are that server's span
// sequence — unique across servers without coordination or randomness.
type SpanID uint64

// String renders the ID as 16 hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// Kind classifies what a span measures.
type Kind uint8

// Span kinds, one per instrumented layer.
const (
	KindInternal Kind = iota // uncategorized local work
	KindClient               // rmi stub side of a call (incl. each attempt)
	KindServer               // rmi registry side handling a request
	KindRoute                // presentation-tier routing decision
	KindTx                   // a transaction 2PC phase
	KindJMS                  // a messaging hop (SAF forward, delivery)
	KindSession              // servlet session replication write
)

var kindNames = [...]string{"internal", "client", "server", "route", "tx", "jms", "session"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Annotation is one key/value note on a span, in attachment order.
type Annotation struct {
	Key, Value string
}

// SpanData is the immutable record of a finished span, as handed to
// exporters and returned from ring snapshots.
type SpanData struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for local roots; the caller's span for remote continuations
	Name   string
	Kind   Kind
	// Server names the server (or router/client endpoint) the span ran on.
	Server      string
	Start, End  time.Time
	Error       string
	Annotations []Annotation
}

// Duration is the span's elapsed time on its tracer's clock.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Span is a live, in-flight span handle. All methods are no-ops on a nil
// receiver, so call sites never need to branch on whether the request is
// traced.
type Span struct {
	tracer *Tracer

	mu   sync.Mutex
	data SpanData
	done bool
}

// Context returns the span's propagation context (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.data.Trace, Span: s.data.ID, Sampled: true}
}

// TraceID returns the span's trace ID (zero for nil).
//
//wls:nolint unreached -- test hook: TestTracePropagatesAcrossServers
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.data.Trace
}

// Annotate attaches a key/value note.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.data.Annotations = append(s.data.Annotations, Annotation{key, value})
	}
	s.mu.Unlock()
}

// AnnotateInt attaches an integer note. Unlike Annotate with a formatted
// value, it defers the int→string conversion until after the nil check, so
// untraced call sites pay nothing.
func (s *Span) AnnotateInt(key string, v int) {
	if s == nil {
		return
	}
	s.Annotate(key, strconv.Itoa(v))
}

// SetError records err on the span (the last one wins).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.data.Error = err.Error()
	}
	s.mu.Unlock()
}

// Finish stamps the end time and exports the span. Finishing twice (or
// finishing a nil span) is a no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.data.End = s.tracer.clock.Now()
	data := s.data
	s.mu.Unlock()
	s.tracer.export(data)
}

// NewChild starts a child span on the same tracer and returns a derived
// context carrying it. On a nil receiver it returns ctx unchanged and a
// nil span.
func (s *Span) NewChild(ctx context.Context, name string, kind Kind) (context.Context, *Span) {
	child := s.Child(name, kind)
	if child == nil {
		return ctx, nil
	}
	return ContextWith(ctx, child), child
}

// Child starts a child span on the same tracer without touching a context
// (used by layers, like the transaction manager, that hold a parent span
// across calls). Nil-safe.
func (s *Span) Child(name string, kind Kind) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(s.data.Trace, s.data.ID, name, kind)
}

// ---------------------------------------------------------------------------
// Context plumbing

type ctxKey struct{}

// ContextWith returns a context carrying the span.
func ContextWith(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil. The nil return is
// directly usable: every *Span method no-ops on nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ---------------------------------------------------------------------------
// Sampler

// Sampler makes the head-based sampling decision for new roots. The
// decision is made once at the root and propagated; implementations must
// be deterministic (counter-based, never random) and safe for concurrent
// use.
type Sampler interface {
	Sample() bool
}

type alwaysSampler struct{}

func (alwaysSampler) Sample() bool { return true }

type neverSampler struct{}

func (neverSampler) Sample() bool { return false }

// Always samples every root.
func Always() Sampler { return alwaysSampler{} }

// Never samples nothing (tracing stays wired but inert).
func Never() Sampler { return neverSampler{} }

type nthSampler struct {
	n   uint64
	ctr atomic.Uint64
}

func (s *nthSampler) Sample() bool { return (s.ctr.Add(1)-1)%s.n == 0 }

// EveryNth samples the 1st, n+1st, 2n+1st, ... root.
func EveryNth(n uint64) Sampler {
	if n <= 1 {
		return Always()
	}
	return &nthSampler{n: n}
}

// Ratio approximates a sampling rate r in [0,1] with the deterministic
// every-Nth rule (N = round(1/r)).
func Ratio(r float64) Sampler {
	switch {
	case r <= 0:
		return Never()
	case r >= 1:
		return Always()
	default:
		return EveryNth(uint64(1/r + 0.5))
	}
}

// ---------------------------------------------------------------------------
// Tracer

// Exporter receives finished spans. ExportSpan must be safe for concurrent
// use and must not block for long — it runs inline in Finish.
type Exporter interface {
	ExportSpan(SpanData)
}

type discardExporter struct{}

func (discardExporter) ExportSpan(SpanData) {}

// Options configures a Tracer.
type Options struct {
	// Sampler decides which roots are traced (default Always).
	Sampler Sampler
	// Exporter receives finished spans (default discard).
	Exporter Exporter
}

// Tracer mints spans for one server. A nil *Tracer is a valid disabled
// tracer: StartRoot returns (ctx, nil) without allocating.
type Tracer struct {
	server   string
	clock    vclock.Clock
	sampler  Sampler
	exporter Exporter

	origin64 uint64 // fnv64a(server)
	origin32 uint64 // fnv32a(server), pre-shifted into the SpanID high bits
	rootSeq  atomic.Uint64
	spanSeq  atomic.Uint64
}

// New builds a tracer for the named server on the given clock.
func New(server string, clock vclock.Clock, opts Options) *Tracer {
	if clock == nil {
		clock = vclock.System
	}
	if opts.Sampler == nil {
		opts.Sampler = Always()
	}
	if opts.Exporter == nil {
		opts.Exporter = discardExporter{}
	}
	return &Tracer{
		server:   server,
		clock:    clock,
		sampler:  opts.Sampler,
		exporter: opts.Exporter,
		origin64: fnv64a(server),
		origin32: uint64(fnv32a(server)) << 32,
	}
}

// StartRoot starts a new trace if the sampler elects this root, returning
// a derived context carrying the root span. On a nil tracer or an
// unsampled root it returns (ctx, nil) without allocating.
func (t *Tracer) StartRoot(ctx context.Context, name string, kind Kind) (context.Context, *Span) {
	if t == nil || !t.sampler.Sample() {
		return ctx, nil
	}
	id := TraceID{Hi: t.origin64, Lo: t.rootSeq.Add(1)}
	s := t.newSpan(id, 0, name, kind)
	return ContextWith(ctx, s), s
}

// StartRemote continues a trace that arrived from another server (sc
// decoded from the request envelope), parenting the new span under the
// caller's span. Unsampled or invalid contexts start nothing.
func (t *Tracer) StartRemote(ctx context.Context, sc SpanContext, name string, kind Kind) (context.Context, *Span) {
	if t == nil || !sc.Sampled || !sc.Valid() {
		return ctx, nil
	}
	s := t.newSpan(sc.Trace, sc.Span, name, kind)
	return ContextWith(ctx, s), s
}

func (t *Tracer) newSpan(id TraceID, parent SpanID, name string, kind Kind) *Span {
	return &Span{
		tracer: t,
		data: SpanData{
			Trace:  id,
			ID:     SpanID(t.origin32 | (t.spanSeq.Add(1) & 0xffffffff)),
			Parent: parent,
			Name:   name,
			Kind:   kind,
			Server: t.server,
			Start:  t.clock.Now(),
		},
	}
}

func (t *Tracer) export(data SpanData) { t.exporter.ExportSpan(data) }

// ---------------------------------------------------------------------------
// Hashing (inline FNV-1a; hash/fnv allocates its state)

func fnv64a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	if h == 0 {
		h = offset // keep IsZero meaning "unset"
	}
	return h
}

func fnv32a(s string) uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	if h == 0 {
		h = offset
	}
	return h
}
