//go:build !race

package wire

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func TestGateAppendFrameZeroAllocs(t *testing.T) {
	f := Frame{Kind: KindRequest, Corr: 42, Body: make([]byte, 256)}
	dst := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(500, func() {
		dst = AppendFrame(dst[:0], f)
	}); allocs != 0 {
		t.Fatalf("AppendFrame steady state: %v allocs/op, want 0", allocs)
	}
}

func TestGateWriteFramePooledZeroAllocs(t *testing.T) {
	f := Frame{Kind: KindRequest, Corr: 42, Body: make([]byte, 256)}
	if allocs := testing.AllocsPerRun(500, func() {
		if err := WriteFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WriteFrame steady state: %v allocs/op, want 0", allocs)
	}
}

func TestGatePooledEncoderZeroAllocs(t *testing.T) {
	args := make([]byte, 128)
	if allocs := testing.AllocsPerRun(500, func() {
		e := AcquireEncoder()
		e.String("Inventory")
		e.String("reserve")
		e.Uint64(12345)
		e.Bytes2(args)
		if e.Len() == 0 {
			t.Fatal("empty encode")
		}
		e.Release()
	}); allocs != 0 {
		t.Fatalf("pooled Encoder steady state: %v allocs/op, want 0", allocs)
	}
}

func TestGateFrameReaderZeroCopyZeroAllocs(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{Kind: KindOneWay, Corr: 1, Body: make([]byte, 256)}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	rd := bytes.NewReader(encoded)
	fr := NewFrameReader(rd)
	fr.SetZeroCopy(true)
	if _, err := fr.Next(); err != nil { // warm the reuse buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		rd.Reset(encoded)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("zero-copy FrameReader steady state: %v allocs/op, want 0", allocs)
	}
}

// TestGatePooledFrameLifecycle: recycling a pooled frame and its encoder
// allocates nothing in the steady state.
func TestGatePooledFrameLifecycle(t *testing.T) {
	if allocs := testing.AllocsPerRun(500, func() { pooledFrameRound(t) }); allocs != 0 {
		t.Fatalf("pooled frame steady state: %v allocs/op, want 0", allocs)
	}
}

// TestGateFrameReaderDetach: taking a frame's buffer over costs no
// allocation once the pool is warm.
func TestGateFrameReaderDetach(t *testing.T) {
	var stream []byte
	for i := 0; i < 4; i++ {
		stream = AppendFrame(stream, Frame{Kind: KindRequest, Corr: uint64(i), Body: bytes.Repeat([]byte{byte('a' + i)}, 64)})
	}
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd)
	fr.SetZeroCopy(true)
	if allocs := testing.AllocsPerRun(500, func() {
		rd.Reset(stream)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		fr.Detach().Release()
	}); allocs != 0 {
		t.Fatalf("Next+Detach+Release steady state: %v allocs/op, want 0", allocs)
	}
}

// TestGateFrameHeaderRejected: the errors are values, so refusing a header
// allocates nothing at all.
func TestGateFrameHeaderRejected(t *testing.T) {
	bad := append(binary.AppendUvarint(nil, 1<<20), byte(KindRequest), 0x81, 0x00)
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
