// Package wire implements the binary framing used by every server-to-server
// and tightly-coupled-client protocol in the system. It plays the role of
// WebLogic's proprietary T3 protocol (§2.2 of the paper): a single TCP
// connection carries many concurrent requests, each frame carrying a
// correlation identifier so responses can be matched to callers, which is
// what makes "session concentration" (§2.1) possible — many client sockets
// multiplexed over few back-end connections.
//
// Frames are length-prefixed, and everything ahead of the body is as short
// as its value allows:
//
//	uvarint payload length: everything after this prefix, at most MaxFrameSize
//	byte    frame kind
//	uvarint correlation id (a per-connection counter, so 1-3 bytes in practice)
//	...     kind-specific body encoded with Encoder
//
// That is 3 bytes ahead of a body under 126 bytes on a young connection and
// 4-6 for the bodies and counters a busy one sees. Both varints must be
// minimal, so a frame has exactly one encoding and Frame.WireSize is what a
// peer's socket receives; a length prefix never needs more than 4 bytes.
// There is one format and no negotiation: connection handshakes carry
// FormatVersion and refuse any other (see internal/transport).
//
// The package also provides Encoder/Decoder, a compact append-style binary
// encoding (uvarint lengths, no reflection) used for all message bodies.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Kind identifies the role of a frame within a connection.
type Kind byte

// Frame kinds. Request/Response implement RPC, the only traffic a
// connection carries once open; Announce is a connection's hello (see
// internal/transport); OneWay frames the records of a transaction log
// file. Numbers are never reused: 4 was a heartbeat.
const (
	KindRequest Kind = iota + 1
	KindResponse
	KindOneWay
	_
	KindAnnounce
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindOneWay:
		return "oneway"
	case KindAnnounce:
		return "announce"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Handler serves a request arriving on a node: the returned frame (if
// non-nil) is sent back as the response to the caller's Call. Both the
// simulated fabric (internal/netsim) and the TCP transport
// (internal/transport) deliver requests to a Handler, so protocol code above
// them is transport-agnostic.
//
// Ownership: f.Body is the node's, recycled once the handler has returned
// and its response has been copied out, so a handler must not retain it
// (the response may alias it). The returned frame stays the handler's until
// the node has copied it to its delivery edge; the node then calls Release
// on it, which recycles a frame from AcquireFrame and ignores any other.
type Handler func(from string, f Frame) *Frame

// ErrNotRun is the error half of the node contract (see rmi.Node): an error
// from a node's Call that satisfies errors.Is(err, ErrNotRun) proves that no
// handler ran for the request — it never left the caller, or it reached no
// handler — so sending it again, anywhere, cannot run it twice. Any other
// error from Call means the request may have run.
var ErrNotRun = errors.New("wire: request not run")

// NotRun marks err as such a proof: the result reads as err and satisfies
// errors.Is for both err and ErrNotRun.
func NotRun(err error) error { return notRun{err} }

type notRun struct{ error }

func (e notRun) Unwrap() error      { return e.error }
func (notRun) Is(target error) bool { return target == ErrNotRun }

// MaxFrameSize bounds a single frame; larger frames indicate corruption or
// an unreasonable payload and are rejected before allocation.
const MaxFrameSize = 64 << 20 // 64 MiB

// FormatVersion names the frame layout in the package comment and the
// method bodies it carries, and goes up with any change to either. A
// transport sends it in its handshake and refuses a peer that sends
// anything else, so a build with other frames or bodies is turned away
// instead of misparsed.
const FormatVersion byte = 7

// ErrFrameTooLarge is returned when a frame header announces a payload
// exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrBadFrame is returned for a frame header no AppendFrame writes: a
// length too short to hold kind and correlation id, an over-long or
// non-minimal varint, or a correlation id that runs past the length.
var ErrBadFrame = errors.New("wire: malformed frame header")

// Frame is a decoded wire frame.
type Frame struct {
	Kind Kind
	// Corr correlates a Response to its Request.
	Corr uint64
	// Body is the kind-specific payload.
	Body []byte

	// enc is the pooled encoder Body was built in; set only on frames
	// from AcquireFrame.
	enc *Encoder
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// AcquireFrame returns a pooled frame for a Handler to return. Build the
// body in f.Encoder() and set f.Body = f.Encoder().Bytes(); the node that
// receives the frame releases it after copying the body.
func AcquireFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.enc = AcquireEncoder()
	return f
}

// Encoder returns the pooled encoder of a frame from AcquireFrame.
func (f *Frame) Encoder() *Encoder { return f.enc }

// Release recycles a frame obtained from AcquireFrame, and its encoder,
// once the body has been copied; neither may be used afterwards. It is a
// no-op on nil and on frames built any other way.
func (f *Frame) Release() {
	if f == nil || f.enc == nil {
		return
	}
	f.enc.Release()
	*f = Frame{}
	framePool.Put(f)
}

// poisonReleased makes every Release overwrite the buffer it recycles.
var poisonReleased atomic.Bool

// PoisonReleased is a test hook: while on, every released Encoder (pooled
// frames and read buffers are Encoders too) is overwritten with 0xDB before
// it returns to the pool, so a use-after-release reads garbage instead of
// plausible stale bytes.
//
//wls:nolint unreached -- test hook: TestPoolRecyclingTCP
func PoisonReleased(on bool) { poisonReleased.Store(on) }

func poison(b []byte) {
	if poisonReleased.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
}

// maxRetainedBuf bounds how large a pooled Encoder's buffer may be and
// still go back to the pool on Release. Every reused buffer is one —
// encode buffers, pooled response frames, FrameReader's body buffers, the
// transport's batch buffers — so one oversized frame is handed back to the
// allocator instead of being pinned by a pool or a connection.
const maxRetainedBuf = 64 << 10

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// payloadLen is what the length prefix of f announces: kind, correlation
// id and body.
func (f Frame) payloadLen() int { return 1 + uvarintLen(f.Corr) + len(f.Body) }

// WireSize returns the exact number of bytes f occupies on the wire, length
// prefix included.
func (f Frame) WireSize() int {
	n := f.payloadLen()
	return uvarintLen(uint64(n)) + n
}

// Oversize reports whether f is too large to send: a reader rejects a
// payload over MaxFrameSize.
func (f Frame) Oversize() bool { return f.payloadLen() > MaxFrameSize }

// AppendFrame appends f to dst as a single length-prefixed frame and
// returns the extended slice. It is the allocation-free building block
// under WriteFrame and the transport's batched writer: encoding many
// frames into one buffer turns many small writes into one syscall.
//
// AppendFrame performs no size validation so the steady-state path stays
// free of error plumbing; callers accepting frames from untrusted sources
// must reject f.Oversize() themselves (WriteFrame and the transport both
// do).
func AppendFrame(dst []byte, f Frame) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.payloadLen()))
	dst = append(dst, byte(f.Kind))
	dst = binary.AppendUvarint(dst, f.Corr)
	return append(dst, f.Body...)
}

// WriteFrame writes f to w as a single length-prefixed frame. The encode
// buffer comes from a pool, so steady-state writes do not allocate.
func WriteFrame(w io.Writer, f Frame) error {
	if f.Oversize() {
		return ErrFrameTooLarge
	}
	e := AcquireEncoder()
	e.Frame(f)
	_, err := w.Write(e.buf)
	e.Release()
	return err
}

// ReadFrame reads the next frame from r and nothing past it. Each call
// allocates the returned Body; stream readers that want buffer reuse should
// use FrameReader.
func ReadFrame(r io.Reader) (Frame, error) { return NewFrameReader(r).Next() }

// FrameReader reads a stream of frames from r. The header is read a byte
// at a time, which costs nothing on a buffered reader (anything with
// ReadByte is used directly).
//
// By default each returned Frame carries a Body read straight into memory
// the caller owns. In zero-copy mode (SetZeroCopy) the Body is a pooled
// buffer the reader takes once a header has arrived and gives back at the
// start of the next call to Next, so the Body is valid only until then and
// a reader blocked between frames holds none — unless the caller takes the
// buffer over with Detach, which is how a dispatch loop hands a request to
// a worker without copying it.
type FrameReader struct {
	r        io.Reader
	br       io.ByteReader // r, when it can hand out single bytes itself
	one      [1]byte       // readByte scratch otherwise; a field so it never escapes
	buf      *Encoder      // the zero-copy body buffer of the last frame, until Next or Detach
	zeroCopy bool
}

// NewFrameReader returns a FrameReader over r in copying (safe) mode.
func NewFrameReader(r io.Reader) *FrameReader {
	br, _ := r.(io.ByteReader)
	return &FrameReader{r: r, br: br}
}

// SetZeroCopy toggles zero-copy mode: when on, the Body of a returned
// frame aliases the reader's pooled buffer until the next call to Next.
func (fr *FrameReader) SetZeroCopy(on bool) { fr.zeroCopy = on }

// Next returns the next frame from the stream. The whole header is checked
// before a body buffer is sized from it: a length over MaxFrameSize, an
// over-long, non-minimal or cut-off varint, or a correlation id that runs
// past the announced length is an error that allocates nothing.
func (fr *FrameReader) Next() (Frame, error) {
	if fr.buf != nil { // the last zero-copy body's life ends here
		fr.buf.Release()
		fr.buf = nil
	}
	// MaxFrameSize < 2^28: a legal length prefix has at most 4 bytes.
	n, _, err := fr.uvarint(4)
	if err != nil {
		return Frame{}, err // io.EOF here is the clean end of the stream
	}
	if n > MaxFrameSize {
		return Frame{}, ErrFrameTooLarge
	}
	if n < 2 {
		return Frame{}, ErrBadFrame
	}
	kind, err := fr.readByte()
	if err != nil {
		return Frame{}, midFrame(err)
	}
	corr, k, err := fr.uvarint(min(int(n)-1, binary.MaxVarintLen64))
	if err != nil {
		return Frame{}, midFrame(err)
	}
	var body []byte
	if size := int(n) - 1 - k; fr.zeroCopy {
		body = fr.payload(size)
	} else if size > 0 {
		body = make([]byte, size)
	}
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return Frame{}, midFrame(err)
	}
	return Frame{Kind: Kind(kind), Corr: corr, Body: body}, nil
}

// midFrame turns the end of the stream inside a frame into the error it is.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (fr *FrameReader) readByte() (byte, error) {
	if fr.br != nil {
		return fr.br.ReadByte()
	}
	_, err := io.ReadFull(fr.r, fr.one[:])
	return fr.one[0], err
}

// uvarint reads a minimally encoded uvarint of at most limit bytes and
// reports how many it took. Only the varint's own bytes are consumed.
func (fr *FrameReader) uvarint(limit int) (v uint64, k int, err error) {
	for k < limit {
		b, err := fr.readByte()
		if err != nil {
			if k > 0 {
				err = midFrame(err)
			}
			return 0, 0, err
		}
		shift := 7 * uint(k)
		k++
		if b < 0x80 {
			if (b == 0 && k > 1) || (k == binary.MaxVarintLen64 && b > 1) {
				break // padded with a zero group, or past 64 bits
			}
			return v | uint64(b)<<shift, k, nil
		}
		v |= uint64(b&0x7f) << shift
	}
	return 0, 0, ErrBadFrame
}

// Detach hands the caller the pooled buffer backing the Body of the frame
// Next just returned in zero-copy mode: the Body stays valid until the
// caller Releases it, and the reader reads its next frame into another.
func (fr *FrameReader) Detach() *Encoder {
	b := fr.buf
	fr.buf = nil
	return b
}

// payload takes a pooled body buffer and sizes it to n bytes. One grown
// past maxRetainedBuf by an oversized frame is dropped by its Release.
func (fr *FrameReader) payload(n int) []byte {
	fr.buf = AcquireEncoder()
	if n > cap(fr.buf.buf) {
		fr.buf.buf = make([]byte, n, max(n, 4096))
	}
	fr.buf.buf = fr.buf.buf[:n]
	return fr.buf.buf
}

// ---------------------------------------------------------------------------
// Encoder / Decoder

// Encoder builds a message body by appending fields. The zero value is ready
// to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity pre-allocated for sizeHint
// bytes.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// MakeEncoder returns an Encoder value with capacity pre-allocated for
// sizeHint bytes. Hot encode paths that build a fresh owned []byte use a
// stack-resident value encoder (one allocation for the buffer) instead of
// NewEncoder's heap pair; paths that can release the buffer afterwards
// should prefer AcquireEncoder (zero steady-state allocations).
func MakeEncoder(sizeHint int) Encoder {
	return Encoder{buf: make([]byte, 0, sizeHint)}
}

// encoderPool recycles encoders for hot encode paths (RMI stub requests,
// pooled frames, the transport's batch and body buffers). Steady-state
// encoding through the pool is allocation-free.
var encoderPool = sync.Pool{New: func() any { return &Encoder{buf: make([]byte, 0, 512)} }}

// AcquireEncoder returns an empty pooled encoder. Release it with
// (*Encoder).Release when the encoded bytes are no longer referenced.
func AcquireEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// Release returns e to the pool. The caller must not use e — or any slice
// previously obtained from e.Bytes() — after Release: the buffer will be
// overwritten by the next AcquireEncoder. Oversized buffers are dropped
// rather than retained.
func (e *Encoder) Release() {
	poison(e.buf)
	if cap(e.buf) <= maxRetainedBuf {
		encoderPool.Put(e)
	}
}

// Bytes returns the encoded body. The returned slice aliases the encoder's
// buffer; callers must not modify it while continuing to encode.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse, keeping its buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 appends v as a uvarint.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int64 appends v as a zig-zag varint.
func (e *Encoder) Int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends v as a zig-zag varint.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Byte appends a raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint64(uint64(len(s)))
	e.Raw(s)
}

// Raw appends s with no length prefix: the caller's own field says how
// long it is.
func (e *Encoder) Raw(s string) { e.buf = append(e.buf, s...) }

// RawBytes is Raw for a byte slice.
func (e *Encoder) RawBytes(b []byte) { e.buf = append(e.buf, b...) }

// Frame appends f as one length-prefixed frame (AppendFrame), so frames
// can be batched in a pooled buffer.
func (e *Encoder) Frame(f Frame) { e.buf = AppendFrame(e.buf, f) }

// Bytes2 appends a length-prefixed byte slice.
func (e *Encoder) Bytes2(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// BeginBytes opens a length-prefixed field whose length is not known yet:
// append the payload with any Encoder method, then pass the returned mark
// to EndBytes. The bytes produced equal Bytes2 of the payload, so a nested
// message is encoded once, in place, instead of into a buffer of its own.
func (e *Encoder) BeginBytes() (mark int) {
	var pad [binary.MaxVarintLen64]byte
	e.buf = append(e.buf, pad[:]...)
	return len(e.buf)
}

// EndBytes closes the field opened at mark: it writes the payload length
// into the reserved prefix and moves the payload down over the slack.
func (e *Encoder) EndBytes(mark int) {
	start := mark - binary.MaxVarintLen64
	k := binary.PutUvarint(e.buf[start:mark], uint64(len(e.buf)-mark))
	n := copy(e.buf[start+k:], e.buf[mark:])
	e.buf = e.buf[:start+k+n]
}

// StringSlice appends a length-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Uint64(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Decoder reads fields appended by Encoder.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b for decoding. The decoder records the first error and
// returns zero values thereafter; check Err once at the end.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

var errShortBuffer = errors.New("wire: short buffer")

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = errShortBuffer
	}
}

// Uint64 reads a uvarint.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Int64 reads a zig-zag varint.
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Int reads a zig-zag varint and narrows it.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Count reads an element count written with Int, for a list whose every
// element takes at least minSize bytes. A count that is negative, or that
// the bytes after it cannot hold, fails the decoder and reads as 0, so a
// lying count fails before anything is sized by it.
func (d *Decoder) Count(minSize int) int {
	n := d.Int64()
	if d.err == nil && (n < 0 || n > int64(d.Remaining()/minSize)) {
		d.fail()
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Peek returns the next byte without consuming it. It reports ok=false at
// the end of the buffer or after an earlier decoding error, letting callers
// dispatch between optional trailing blocks by magic byte.
func (d *Decoder) Peek() (b byte, ok bool) {
	if d.err != nil || d.off >= len(d.buf) {
		return 0, false
	}
	return d.buf[d.off], true
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint64()
	if d.err != nil {
		return ""
	}
	if uint64(d.Remaining()) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Bytes reads a length-prefixed byte slice. The result is a copy.
func (d *Decoder) Bytes() []byte {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail()
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return b
}

// BytesNoCopy reads a length-prefixed byte slice without copying: the
// result aliases the decoder's input buffer and is valid only as long as
// that buffer is. Hot decode paths use it for fields that are consumed
// before the buffer is recycled (map lookups, re-encoding into another
// buffer); anything retained past the buffer's lifetime must use Bytes.
// String-encoded fields share the wire format, so this also reads fields
// written with String.
func (d *Decoder) BytesNoCopy() []byte { return d.Raw(d.Uint64()) }

// Raw reads n bytes that carry no length prefix, without copying (see
// BytesNoCopy for how long the result is valid).
func (d *Decoder) Raw(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

// StringDecoder is a Decoder over a string that reads in place: String
// returns a substring of the input, so a record kept as a string is read
// without a copy. Like Decoder it records the first error and returns zero
// values thereafter.
type StringDecoder struct {
	s   string
	err error
}

// NewStringDecoder wraps s for decoding.
func NewStringDecoder(s string) StringDecoder { return StringDecoder{s: s} }

// Err returns the first decoding error encountered, if any.
func (d *StringDecoder) Err() error { return d.err }

func (d *StringDecoder) fail() {
	if d.err == nil {
		d.err = errShortBuffer
	}
	d.s = ""
}

// Byte reads one raw byte.
func (d *StringDecoder) Byte() byte {
	if d.s == "" {
		d.fail()
		return 0
	}
	b := d.s[0]
	d.s = d.s[1:]
	return b
}

// Uint64 reads a uvarint; one that overflows 64 bits is an error, as in
// binary.Uvarint.
func (d *StringDecoder) Uint64() uint64 {
	var v uint64
	for i := 0; i < len(d.s) && i < binary.MaxVarintLen64; i++ {
		b := d.s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			d.s = d.s[i+1:]
			return v | uint64(b)<<(7*i)
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	d.fail()
	return 0
}

// String reads a length-prefixed string, as a substring of the input.
func (d *StringDecoder) String() string {
	n := d.Uint64()
	if uint64(len(d.s)) < n {
		d.fail()
		return ""
	}
	s := d.s[:n]
	d.s = d.s[n:]
	return s
}

// Rest returns the unread input, consuming it.
func (d *StringDecoder) Rest() string {
	s := d.s
	d.s = ""
	return s
}

// ---------------------------------------------------------------------------
// Interner

// Interner is a bounded []byte→string intern table for hot decode paths
// where the same few values recur on every message (server names, session
// cookies, method names). Interning turns the per-message string allocation
// into a lock-protected map hit. The table is dropped wholesale when it
// exceeds its bound, so an adversarial stream of distinct values degrades
// to plain allocation rather than unbounded growth.
type Interner struct {
	mu  sync.RWMutex
	m   map[string]string
	max int
}

// NewInterner returns an interner retaining at most max distinct strings
// (max <= 0 selects a default of 1024).
func NewInterner(max int) *Interner {
	if max <= 0 {
		max = 1024
	}
	return &Interner{m: make(map[string]string), max: max}
}

// Intern returns the canonical string for b, allocating only the first
// time a distinct value is seen.
func (it *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	it.mu.RLock()
	s, ok := it.m[string(b)] // no-alloc map lookup
	it.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	it.mu.Lock()
	if len(it.m) >= it.max {
		it.m = make(map[string]string)
	}
	it.m[s] = s
	it.mu.Unlock()
	return s
}

// StringSlice reads a length-prefixed slice of strings.
func (d *Decoder) StringSlice() []string {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) { // each string needs at least 1 length byte
		d.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}
