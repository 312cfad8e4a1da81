package trace

import (
	"errors"
	"fmt"

	"wls/internal/wire"
)

// SpanContext is the propagated identity of a span: what crosses the wire
// between servers in the request envelope.
type SpanContext struct {
	// Trace is the request's trace.
	Trace TraceID
	// Span is the caller's span, which becomes the parent of the server
	// span on the receiving side.
	Span SpanID
	// Sampled is the head-based sampling decision made at the root. Only
	// sampled contexts are ever encoded.
	Sampled bool
}

// Valid reports whether the context identifies a span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && sc.Span != 0 }

// Envelope wire format: the optional last field of an RMI request, after
// service, method, args and the optional deadline block. A request from an
// untraced caller ends before it and starts no span; a request with bytes
// after its envelope is malformed. The wire frame header is untouched.
const (
	envelopeMagic   byte = 0xC7
	envelopeVersion byte = 1

	flagSampled byte = 1 << 0
)

// Envelope decode errors.
var (
	ErrBadEnvelope = errors.New("trace: malformed envelope")
)

// AppendEnvelope appends sc to an RMI request being encoded. Unsampled or
// invalid contexts append nothing.
func AppendEnvelope(e *wire.Encoder, sc SpanContext) {
	if !sc.Sampled || !sc.Valid() {
		return
	}
	e.Byte(envelopeMagic)
	e.Byte(envelopeVersion)
	e.Uint64(sc.Trace.Hi)
	e.Uint64(sc.Trace.Lo)
	e.Uint64(uint64(sc.Span))
	e.Byte(flagSampled)
}

// ParseEnvelope reads the optional trace envelope from the tail of a
// request. No remaining bytes means no envelope: (zero, nil). Anything
// else must be a complete, well-formed envelope with no bytes after it —
// corrupt, truncated, or oversized tails return ErrBadEnvelope, never
// panic.
func ParseEnvelope(d *wire.Decoder) (SpanContext, error) {
	if d.Err() != nil {
		return SpanContext{}, d.Err()
	}
	if d.Remaining() == 0 {
		return SpanContext{}, nil
	}
	if magic := d.Byte(); d.Err() != nil || magic != envelopeMagic {
		return SpanContext{}, fmt.Errorf("%w: bad magic", ErrBadEnvelope)
	}
	version := d.Byte()
	if d.Err() != nil || version != envelopeVersion {
		return SpanContext{}, fmt.Errorf("%w: unsupported version %d", ErrBadEnvelope, version)
	}
	var sc SpanContext
	sc.Trace.Hi = d.Uint64()
	sc.Trace.Lo = d.Uint64()
	sc.Span = SpanID(d.Uint64())
	flags := d.Byte()
	if d.Err() != nil {
		return SpanContext{}, fmt.Errorf("%w: truncated", ErrBadEnvelope)
	}
	if d.Remaining() != 0 {
		return SpanContext{}, fmt.Errorf("%w: %d trailing bytes", ErrBadEnvelope, d.Remaining())
	}
	sc.Sampled = flags&flagSampled != 0
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("%w: zero ids", ErrBadEnvelope)
	}
	return sc, nil
}
