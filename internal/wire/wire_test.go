package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

// TestNotRunKeepsItsCause: a NotRun error reads as its cause and matches
// both the cause and ErrNotRun; the cause alone does not match ErrNotRun.
func TestNotRunKeepsItsCause(t *testing.T) {
	cause := errors.New("link down")
	err := NotRun(cause)
	if err.Error() != "link down" || !errors.Is(err, cause) || !errors.Is(err, ErrNotRun) {
		t.Fatalf("NotRun(%v) = %v", cause, err)
	}
	if errors.Is(cause, ErrNotRun) {
		t.Fatal("the cause itself matches ErrNotRun")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Kind: KindRequest, Corr: 42, Body: []byte("hello")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Corr != in.Corr || !bytes.Equal(out.Body, in.Body) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Kind: KindAnnounce, Corr: 7}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindAnnounce || f.Corr != 7 || len(f.Body) != 0 {
		t.Fatalf("got %+v", f)
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, Frame{Kind: KindOneWay, Corr: uint64(i), Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Corr != uint64(i) || f.Body[0] != byte(i) {
			t.Fatalf("frame %d: got %+v", i, f)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Kind: KindRequest, Corr: 1, Body: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncated at %d bytes: want error", cut)
		}
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	hdr := binary.AppendUvarint(nil, MaxFrameSize+1)
	_, err := ReadFrame(bytes.NewReader(hdr))
	if err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	err := WriteFrame(io.Discard, Frame{Kind: KindRequest, Body: make([]byte, MaxFrameSize)})
	if err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestReadFrameShortHeader(t *testing.T) {
	for _, buf := range [][]byte{
		{0},                       // no room for a kind
		{1, byte(KindRequest)},    // no room for a correlation id
		{0, 0, 0, 13, 5, 0, 0, 0}, // what the fixed header (FormatVersion 1) began with
	} {
		if _, err := ReadFrame(bytes.NewReader(buf)); err != ErrBadFrame {
			t.Fatalf("% x: want ErrBadFrame, got %v", buf, err)
		}
	}
}

// TestKindString also pins each kind's number: it is the byte on the wire
// and in transaction log files, so a kind that goes leaves a gap (4).
func TestKindString(t *testing.T) {
	for _, tc := range []struct {
		k    Kind
		n    byte
		want string
	}{
		{KindRequest, 1, "request"}, {KindResponse, 2, "response"},
		{KindOneWay, 3, "oneway"}, {Kind(4), 4, "kind(4)"},
		{KindAnnounce, 5, "announce"}, {Kind(99), 99, "kind(99)"},
	} {
		if byte(tc.k) != tc.n {
			t.Errorf("%s = %d, want %d", tc.want, tc.k, tc.n)
		}
		if got := tc.k.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.k, got, tc.want)
		}
	}
}

func TestEncoderDecoderAllTypes(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(12345)
	e.Int64(-9876)
	e.Int(-3)
	e.Byte(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.String("weblogic")
	e.Bytes2([]byte{1, 2, 3})
	e.StringSlice([]string{"a", "bb", ""})

	d := NewDecoder(e.Bytes())
	if got := d.Uint64(); got != 12345 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -9876 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := d.Int(); got != -3 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.Byte(); got != 0xAB {
		t.Fatalf("Byte = %x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := d.String(); got != "weblogic" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := d.StringSlice(); !reflect.DeepEqual(got, []string{"a", "bb", ""}) {
		t.Fatalf("StringSlice = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderShortBufferSticky(t *testing.T) {
	d := NewDecoder([]byte{})
	_ = d.Uint64()
	if d.Err() == nil {
		t.Fatal("want error on empty buffer")
	}
	// All subsequent reads return zero values without panicking.
	if d.String() != "" || d.Bytes() != nil || d.Int64() != 0 || d.Bool() {
		t.Fatal("sticky error should yield zero values")
	}
}

func TestDecoderTruncatedString(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(100) // claims 100 bytes follow
	d := NewDecoder(e.Bytes())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("want error, got %q err=%v", s, d.Err())
	}
}

func TestDecoderCorruptStringSliceCount(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(1 << 40) // absurd element count
	d := NewDecoder(e.Bytes())
	if ss := d.StringSlice(); ss != nil || d.Err() == nil {
		t.Fatal("want error on absurd count (no huge allocation)")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.String("abc")
	if e.Len() == 0 {
		t.Fatal("encoder should have bytes")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset should empty encoder")
	}
	e.Uint64(5)
	d := NewDecoder(e.Bytes())
	if d.Uint64() != 5 || d.Err() != nil {
		t.Fatal("encoder unusable after Reset")
	}
}

func TestEncodingPropertyRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, b []byte, ss []string) bool {
		e := NewEncoder(32)
		e.Uint64(u)
		e.Int64(i)
		e.String(s)
		e.Bytes2(b)
		e.StringSlice(ss)
		d := NewDecoder(e.Bytes())
		gu, gi, gs, gb, gss := d.Uint64(), d.Int64(), d.String(), d.Bytes(), d.StringSlice()
		if d.Err() != nil {
			return false
		}
		if gb == nil {
			gb = []byte{}
		}
		if b == nil {
			b = []byte{}
		}
		if gss == nil {
			gss = []string{}
		}
		if ss == nil {
			ss = []string{}
		}
		return gu == u && gi == i && gs == s && bytes.Equal(gb, b) &&
			reflect.DeepEqual(gss, ss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFramePropertyRoundTrip(t *testing.T) {
	f := func(kind byte, corr uint64, body []byte) bool {
		var buf bytes.Buffer
		in := Frame{Kind: Kind(kind), Corr: corr, Body: body}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		if body == nil {
			body = []byte{}
		}
		return out.Kind == in.Kind && out.Corr == corr && bytes.Equal(out.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	for _, body := range [][]byte{nil, {}, []byte("x"), make([]byte, 300)} {
		f := Frame{Kind: KindOneWay, Corr: 9999, Body: body}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got := AppendFrame(nil, f)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("AppendFrame bytes differ from WriteFrame for body len %d", len(body))
		}
		if len(got) != f.WireSize() {
			t.Fatalf("WireSize = %d, encoded %d bytes", f.WireSize(), len(got))
		}
	}
}

func TestAppendFramePreservesPrefix(t *testing.T) {
	dst := []byte("prefix")
	dst = AppendFrame(dst, Frame{Kind: KindRequest, Corr: 1, Body: []byte("a")})
	dst = AppendFrame(dst, Frame{Kind: KindRequest, Corr: 2, Body: []byte("b")})
	if !bytes.HasPrefix(dst, []byte("prefix")) {
		t.Fatal("prefix clobbered")
	}
	fr := NewFrameReader(bytes.NewReader(dst[len("prefix"):]))
	for want := uint64(1); want <= 2; want++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Corr != want {
			t.Fatalf("corr = %d, want %d", f.Corr, want)
		}
	}
}

func TestFrameReaderStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 20; i++ {
		body := bytes.Repeat([]byte{byte(i)}, i*31) // varying sizes incl. empty
		if err := WriteFrame(&buf, Frame{Kind: KindOneWay, Corr: uint64(i), Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	for _, zeroCopy := range []bool{false, true} {
		fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
		fr.SetZeroCopy(zeroCopy)
		for i := 0; i < 20; i++ {
			f, err := fr.Next()
			if err != nil {
				t.Fatalf("zeroCopy=%v frame %d: %v", zeroCopy, i, err)
			}
			want := bytes.Repeat([]byte{byte(i)}, i*31)
			if f.Corr != uint64(i) || !bytes.Equal(f.Body, want) {
				t.Fatalf("zeroCopy=%v frame %d mismatch", zeroCopy, i)
			}
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("want EOF, got %v", err)
		}
	}
}

func TestFrameReaderZeroCopyAliasing(t *testing.T) {
	var buf bytes.Buffer
	for _, s := range []string{"first", "secnd"} {
		if err := WriteFrame(&buf, Frame{Kind: KindOneWay, Body: []byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	// Zero-copy: the next Next call gives the first body's buffer back to
	// the pool, which (poisoned) overwrites it — or hands it straight back
	// for the second body.
	PoisonReleased(true)
	defer PoisonReleased(false)
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	fr.SetZeroCopy(true)
	f1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	retained := f1.Body
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if string(retained) == "first" {
		t.Fatal("zero-copy body survived the next Next: its buffer was not given back")
	}
	// Copying mode: the body survives subsequent reads.
	fr = NewFrameReader(bytes.NewReader(buf.Bytes()))
	f1, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	retained = f1.Body
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if string(retained) != "first" {
		t.Fatalf("copying body should be stable; got %q", retained)
	}
}

// TestFrameReaderHoldsNoBufferBetweenFrames: a zero-copy reader takes a
// body buffer only once a header has arrived and gives it back when it
// looks for the next frame, so one blocked between frames holds none. A
// copying reader never takes one.
func TestFrameReaderHoldsNoBufferBetweenFrames(t *testing.T) {
	stream := AppendFrame(nil, Frame{Kind: KindResponse, Corr: 1, Body: []byte("reply")})
	stream = append(stream, 0x80) // the first byte of a header that never completes
	for _, zeroCopy := range []bool{false, true} {
		fr := NewFrameReader(bytes.NewReader(stream))
		fr.SetZeroCopy(zeroCopy)
		if f, err := fr.Next(); err != nil || string(f.Body) != "reply" {
			t.Fatalf("zeroCopy=%v: %+v, %v", zeroCopy, f, err)
		}
		if held := fr.buf != nil; held != zeroCopy {
			t.Fatalf("zeroCopy=%v: holds a body buffer %v while its body is live", zeroCopy, held)
		}
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("zeroCopy=%v: cut header: %v", zeroCopy, err)
		}
		if fr.buf != nil {
			t.Fatalf("zeroCopy=%v: still holds a body buffer while reading a header", zeroCopy)
		}
	}
}

// TestFrameSizeEdgeCases exercises the boundary frames: empty body,
// payload of exactly MaxFrameSize, one byte over, and a header truncated
// mid-stream after a complete frame.
func TestFrameSizeEdgeCases(t *testing.T) {
	// Empty body through both readers.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Kind: KindAnnounce, Corr: 3}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	if f, err := fr.Next(); err != nil || f.Kind != KindAnnounce || f.Corr != 3 || len(f.Body) != 0 {
		t.Fatalf("empty body: %+v, %v", f, err)
	}

	// Exactly MaxFrameSize payload: the largest legal frame.
	maxBody := make([]byte, MaxFrameSize-2) // payload = kind + 1-byte corr + body = MaxFrameSize
	maxBody[0], maxBody[len(maxBody)-1] = 0xAA, 0xBB
	buf.Reset()
	if err := WriteFrame(&buf, Frame{Kind: KindOneWay, Corr: 1, Body: maxBody}); err != nil {
		t.Fatalf("exactly MaxFrameSize should encode: %v", err)
	}
	fr = NewFrameReader(bytes.NewReader(buf.Bytes()))
	fr.SetZeroCopy(true) // one 64 MiB buffer is enough
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("exactly MaxFrameSize should decode: %v", err)
	}
	if len(f.Body) != len(maxBody) || f.Body[0] != 0xAA || f.Body[len(f.Body)-1] != 0xBB {
		t.Fatal("max-size body corrupted")
	}

	// One byte over (the same body behind a 2-byte correlation id):
	// rejected on write and on read.
	if err := WriteFrame(io.Discard, Frame{Corr: 128, Body: maxBody}); err != ErrFrameTooLarge {
		t.Fatalf("MaxFrameSize+1 write: want ErrFrameTooLarge, got %v", err)
	}
	fr = NewFrameReader(bytes.NewReader(binary.AppendUvarint(nil, MaxFrameSize+1)))
	if _, err := fr.Next(); err != ErrFrameTooLarge {
		t.Fatalf("MaxFrameSize+1 read: want ErrFrameTooLarge, got %v", err)
	}

	// Truncated header mid-stream: one good frame, then 2 bytes of a
	// 3-byte length prefix.
	buf.Reset()
	if err := WriteFrame(&buf, Frame{Kind: KindRequest, Corr: 7, Body: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{0x80, 0x80})
	fr = NewFrameReader(bytes.NewReader(buf.Bytes()))
	if f, err := fr.Next(); err != nil || string(f.Body) != "ok" {
		t.Fatalf("first frame: %+v, %v", f, err)
	}
	if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: want ErrUnexpectedEOF, got %v", err)
	}
}

// ---------------------------------------------------------------------------
// Hot-path benchmarks; gate_test.go pins their allocations at zero.

func BenchmarkAppendFrame(b *testing.B) {
	f := Frame{Kind: KindRequest, Corr: 42, Body: make([]byte, 256)}
	dst := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendFrame(dst[:0], f)
	}
}

func BenchmarkPooledEncoder(b *testing.B) {
	args := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := AcquireEncoder()
		e.String("Inventory")
		e.String("reserve")
		e.Uint64(uint64(i))
		e.Bytes2(args)
		e.Release()
	}
}

func BenchmarkFrameReader(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Kind: KindOneWay, Corr: 1, Body: make([]byte, 256)}); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	for _, mode := range []struct {
		name     string
		zeroCopy bool
	}{{"copy", false}, {"zerocopy", true}} {
		b.Run(mode.name, func(b *testing.B) {
			rd := bytes.NewReader(encoded)
			fr := NewFrameReader(rd)
			fr.SetZeroCopy(mode.zeroCopy)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(encoded)
				if _, err := fr.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteFrame(b *testing.B) {
	body := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = WriteFrame(io.Discard, Frame{Kind: KindRequest, Corr: uint64(i), Body: body})
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(64)
		e.String("service.method")
		e.Uint64(uint64(i))
		e.Bytes2([]byte("payload-payload-payload"))
		d := NewDecoder(e.Bytes())
		_ = d.String()
		_ = d.Uint64()
		_ = d.Bytes()
	}
}

// ---------------------------------------------------------------------------
// Pooled frames, detached read buffers, in-place nested fields.

// TestBeginEndBytesMatchesBytes2 pins the in-place nested field to the wire
// format of Bytes2 at every uvarint width boundary, with fields before and
// after it.
func TestBeginEndBytesMatchesBytes2(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 70000} {
		payload := bytes.Repeat([]byte{0xA5}, n)
		var want, got Encoder
		want.String("head")
		want.Bytes2(payload)
		want.Uint64(7)

		got.String("head")
		mark := got.BeginBytes()
		got.buf = append(got.buf, payload...)
		got.EndBytes(mark)
		got.Uint64(7)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: in-place field differs from Bytes2 (%d vs %d bytes)", n, got.Len(), want.Len())
		}
	}
}

// TestPooledFrameLifecycle: a frame from AcquireFrame carries an encoder,
// Release recycles both, and Release is a no-op on nil and on frames built
// by hand.
func TestPooledFrameLifecycle(t *testing.T) {
	var nilFrame *Frame
	nilFrame.Release()
	plain := &Frame{Kind: KindResponse, Body: []byte("mine")}
	plain.Release()
	if plain.Encoder() != nil || string(plain.Body) != "mine" {
		t.Fatal("Release touched a frame that was not pooled")
	}
	for i := 0; i < 3; i++ {
		pooledFrameRound(t)
	}
}

// pooledFrameRound acquires a pooled frame, checks that it comes reset,
// fills it and releases it.
func pooledFrameRound(t *testing.T) {
	f := AcquireFrame()
	if f.Encoder().Len() != 0 || f.Body != nil || f.Kind != 0 || f.Corr != 0 {
		t.Fatalf("recycled frame not reset: %+v", f)
	}
	f.Encoder().String("payload")
	f.Kind, f.Corr, f.Body = KindResponse, 9, f.Encoder().Bytes()
	f.Release()
}

// TestFrameReaderDetach: a detached buffer keeps the frame's body intact
// while the reader decodes later frames into other buffers.
func TestFrameReaderDetach(t *testing.T) {
	var stream []byte
	for i := 0; i < 4; i++ {
		stream = AppendFrame(stream, Frame{Kind: KindRequest, Corr: uint64(i), Body: bytes.Repeat([]byte{byte('a' + i)}, 64)})
	}
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd)
	fr.SetZeroCopy(true)
	first, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	held := fr.Detach()
	for i := 1; i < 4; i++ {
		f, err := fr.Next()
		if err != nil || f.Corr != uint64(i) || f.Body[0] != byte('a'+i) {
			t.Fatalf("frame %d after Detach: %+v, %v", i, f, err)
		}
	}
	if !bytes.Equal(first.Body, bytes.Repeat([]byte{'a'}, 64)) {
		t.Fatalf("detached body overwritten by later frames: %q", first.Body)
	}
	held.Release()
}

// TestPoisonReleased: with the hook on, released encoders and pooled
// frames read back as 0xDB through any slice still held.
func TestPoisonReleased(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	allDB := func(b []byte) bool { return bytes.Equal(b, bytes.Repeat([]byte{0xDB}, len(b))) }

	e := AcquireEncoder()
	e.String("secret")
	stale := e.Bytes()
	e.Release()

	f := AcquireFrame()
	f.Encoder().String("secret")
	f.Body = f.Encoder().Bytes()
	staleBody := f.Body
	f.Release()

	if !allDB(stale) || !allDB(staleBody) {
		t.Fatalf("released bytes still readable: %q %q", stale, staleBody)
	}
}

// TestStringDecoderAgreesWithDecoder reads arbitrary bytes with both
// decoders through the same sequence of calls: every value and the error
// state agree, so a record kept as a string reads as its bytes would.
func TestStringDecoderAgreesWithDecoder(t *testing.T) {
	f := func(in []byte, calls []uint8) bool {
		d, sd := NewDecoder(in), NewStringDecoder(string(in))
		for _, c := range calls {
			switch c % 4 {
			case 0:
				if d.Byte() != sd.Byte() {
					return false
				}
			case 1:
				if d.Uint64() != sd.Uint64() {
					return false
				}
			case 2:
				if d.Int() != sd.Int() {
					return false
				}
			case 3:
				if d.String() != sd.String() {
					return false
				}
			}
			if (d.Err() == nil) != (sd.Err() == nil) || (d.Err() == nil && d.Remaining() != sd.Remaining()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Edge cases quick rarely draws: an overflowing uvarint, the largest
	// one, and a string longer than its input.
	for _, in := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{0x05, 'a', 'b'},
	} {
		d, sd := NewDecoder(in), NewStringDecoder(string(in))
		if d.Uint64() != sd.Uint64() || (d.Err() == nil) != (sd.Err() == nil) {
			t.Fatalf("%x: the decoders disagree", in)
		}
		d, sd = NewDecoder(in), NewStringDecoder(string(in))
		if d.String() != sd.String() || (d.Err() == nil) != (sd.Err() == nil) {
			t.Fatalf("%x: the decoders disagree on a string", in)
		}
	}
}

func TestCountRefusesALyingCount(t *testing.T) {
	for _, n := range []int64{-1, 4, 1 << 40} {
		e := NewEncoder(16)
		e.Int64(n)
		e.RawBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8}) // room for 4 elements of 2 bytes
		d := NewDecoder(e.Bytes())
		got := d.Count(2)
		if n == 4 {
			if got != 4 || d.Err() != nil {
				t.Fatalf("count 4 over 8 bytes: got %d, %v", got, d.Err())
			}
			continue
		}
		if got != 0 || d.Err() == nil {
			t.Fatalf("count %d over 8 bytes: got %d, %v; want 0 and an error", n, got, d.Err())
		}
	}
}
