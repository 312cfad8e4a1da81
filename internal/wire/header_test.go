package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// headerCorrs and headerBodyLens sit on every width boundary of the two
// header varints: the correlation id at 1, 2, 5 and 10 bytes, the length
// prefix going from 1 to 2 and from 2 to 3 bytes (the payload is the body
// plus kind and id, so the body lengths straddle 128 and 16384 minus 2..11).
var (
	headerCorrs    = []uint64{0, 1, 127, 128, 1 << 32, math.MaxUint64}
	headerBodyLens = []int{0, 1, 115, 116, 117, 118, 124, 125, 126, 127, 128, 129,
		16371, 16372, 16373, 16374, 16380, 16381, 16382, 16383, 16384, 16385}
)

// onlyReader hides ReadByte, so a FrameReader over it takes the io.ReadFull
// fallback for header bytes.
type onlyReader struct{ io.Reader }

func TestFrameHeaderRoundTrip(t *testing.T) {
	src := make([]byte, 16385)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for _, corr := range headerCorrs {
		for _, n := range headerBodyLens {
			in := Frame{Kind: KindResponse, Corr: corr, Body: src[:n]}
			enc := AppendFrame(nil, in)
			if len(enc) != in.WireSize() {
				t.Fatalf("corr %d body %d: WireSize %d, %d bytes encoded", corr, n, in.WireSize(), len(enc))
			}
			// A second frame behind it proves the reader stopped on the boundary.
			stream := AppendFrame(enc, Frame{Kind: KindAnnounce, Corr: 5})
			for _, r := range []io.Reader{bytes.NewReader(stream), onlyReader{bytes.NewReader(stream)}} {
				fr := NewFrameReader(r)
				fr.SetZeroCopy(true)
				out, err := fr.Next()
				if err != nil || out.Kind != in.Kind || out.Corr != corr || !bytes.Equal(out.Body, in.Body) {
					t.Fatalf("corr %d body %d: got kind %v corr %d, %d body bytes, err %v", corr, n, out.Kind, out.Corr, len(out.Body), err)
				}
				if next, err := fr.Next(); err != nil || next.Kind != KindAnnounce || next.Corr != 5 {
					t.Fatalf("corr %d body %d: frame behind it: %+v, %v", corr, n, next, err)
				}
			}
			rd := onlyReader{bytes.NewReader(stream)}
			if out, err := ReadFrame(rd); err != nil || out.Corr != corr || !bytes.Equal(out.Body, in.Body) {
				t.Fatalf("corr %d body %d: ReadFrame: corr %d, %d body bytes, err %v", corr, n, out.Corr, len(out.Body), err)
			}
			if rest, _ := io.ReadAll(rd); len(rest) != len(stream)-len(enc) {
				t.Fatalf("corr %d body %d: ReadFrame left %d bytes unread, want %d", corr, n, len(rest), len(stream)-len(enc))
			}
		}
	}
}

func TestWireSizeIsEncodedSize(t *testing.T) {
	prop := func(kind byte, corr uint64, body []byte, shift uint8) bool {
		f := Frame{Kind: Kind(kind), Corr: corr >> (shift % 64), Body: body}
		return f.WireSize() == len(AppendFrame(nil, f))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// What the hop pays: 3 bytes ahead of a small body on a young
	// connection, 6 ahead of a 200-byte one on a busy one; the fixed header
	// was 13 everywhere.
	for _, tc := range []struct {
		corr     uint64
		body, on int
	}{{1, 100, 3}, {127, 125, 3}, {127, 126, 4}, {128, 100, 4}, {20000, 200, 6}, {math.MaxUint64, 0, 12}} {
		if got := (Frame{Corr: tc.corr, Body: make([]byte, tc.body)}).WireSize() - tc.body; got != tc.on {
			t.Errorf("corr %d, %d-byte body: %d header bytes, want %d", tc.corr, tc.body, got, tc.on)
		}
	}
}

// TestFrameHeaderRejected: every malformed header is an error, raised
// before the reader has sized a body buffer from it.
func TestFrameHeaderRejected(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	kind := []byte{byte(KindRequest)}
	const big = 1 << 20 // a length that would cost a real allocation
	for _, tc := range []struct {
		name   string
		stream []byte
		want   error
	}{
		{"empty stream", nil, io.EOF},
		{"truncated length", []byte{0x80}, io.ErrUnexpectedEOF},
		{"truncated length, 3 of 4", []byte{0x80, 0x80, 0x80}, io.ErrUnexpectedEOF},
		{"5-byte length", []byte{0x80, 0x80, 0x80, 0x80, 0x01, 1, 1}, ErrBadFrame},
		{"non-minimal length", cat([]byte{0x83, 0x00}, kind, []byte{1, 'x'}), ErrBadFrame},
		{"length too short for a header", []byte{1, byte(KindRequest)}, ErrBadFrame},
		{"MaxFrameSize+1", cat(uv(MaxFrameSize+1), kind, []byte{1}), ErrFrameTooLarge},
		{"largest 4-byte length", []byte{0xff, 0xff, 0xff, 0x7f}, ErrFrameTooLarge},
		{"no kind", uv(big), io.ErrUnexpectedEOF},
		{"no corr", cat(uv(big), kind), io.ErrUnexpectedEOF},
		{"truncated corr", cat(uv(big), kind, []byte{0x80, 0x80}), io.ErrUnexpectedEOF},
		{"corr runs past the length", cat(uv(3), kind, []byte{0x80, 0x80, 0x01}), ErrBadFrame},
		{"non-minimal corr", cat(uv(big), kind, []byte{0x81, 0x00}), ErrBadFrame},
		{"corr past 64 bits", cat(uv(big), kind, bytes.Repeat([]byte{0xff}, 9), []byte{0x02}), ErrBadFrame},
		{"11-byte corr", cat(uv(big), kind, bytes.Repeat([]byte{0x80}, 10), []byte{0x01}), ErrBadFrame},
	} {
		for _, r := range []io.Reader{bytes.NewReader(tc.stream), onlyReader{bytes.NewReader(tc.stream)}} {
			fr := NewFrameReader(r)
			if _, err := fr.Next(); err != tc.want {
				t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
			}
			if fr.buf != nil {
				t.Errorf("%s: a body buffer was taken for a header that was refused", tc.name)
			}
		}
		if _, err := ReadFrame(bytes.NewReader(tc.stream)); err != tc.want {
			t.Errorf("%s: ReadFrame got %v, want %v", tc.name, err, tc.want)
		}
	}
	// The errors are values: refusing a header allocates nothing at all.
	bad := cat(uv(big), kind, []byte{0x81, 0x00})
	rd := bytes.NewReader(bad)
	fr := NewFrameReader(rd)
	if allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(bad)
		if _, err := fr.Next(); err != ErrBadFrame {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("refusing a header: %v allocs, want 0", allocs)
	}
}

// FuzzFrameReaderNext: no input panics the reader, and a frame it accepts
// has exactly one encoding — the bytes it was read from. Each input is also
// fed through short reads — one byte, half of what was asked, and a 16-byte
// bufio.Reader over half reads — so headers and bodies split across reads
// and across buffer refills at every offset the stream puts them.
func FuzzFrameReaderNext(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0, 0, 0, 13, 5, 0, 0, 0, 0, 0, 0, 0, 0}) // a FormatVersion 1 header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1})
	f.Add(AppendFrame(nil, Frame{Kind: KindRequest, Corr: 1, Body: []byte("abc")}))
	f.Add(AppendFrame(AppendFrame(nil, Frame{Kind: KindOneWay, Corr: math.MaxUint64}), Frame{Kind: KindResponse, Corr: 300, Body: make([]byte, 200)}))
	// A 15-byte frame, so the next one's 2-byte length and 2-byte id
	// straddle the 16-byte buffer's first refill.
	f.Add(AppendFrame(AppendFrame(nil, Frame{Kind: KindRequest, Corr: 1, Body: make([]byte, 12)}), Frame{Kind: KindResponse, Corr: 300, Body: make([]byte, 200)}))
	// Bodies on either side of the transport's 4 KiB socket buffer.
	f.Add(AppendFrame(AppendFrame(nil, Frame{Kind: KindRequest, Corr: 2, Body: make([]byte, 4095)}), Frame{Kind: KindRequest, Corr: 128, Body: make([]byte, 4097)}))
	// A 3-byte id, then a header cut short.
	f.Add(append(AppendFrame(nil, Frame{Kind: KindAnnounce, Corr: 16384, Body: []byte("hb")}), 0x80, 0x80))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, r := range []io.Reader{
			bytes.NewReader(in),
			onlyReader{bytes.NewReader(in)},
			iotest.OneByteReader(bytes.NewReader(in)),
			iotest.HalfReader(bytes.NewReader(in)),
			bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(in)), 16),
		} {
			fr := NewFrameReader(r)
			fr.SetZeroCopy(true)
			rest := in
			for {
				fm, err := fr.Next()
				if err != nil {
					break
				}
				enc := AppendFrame(nil, fm)
				if len(enc) != fm.WireSize() || !bytes.HasPrefix(rest, enc) {
					t.Fatalf("accepted frame %+v re-encodes to % x, stream had % x", fm, enc, rest)
				}
				rest = rest[len(enc):]
			}
		}
	})
}
