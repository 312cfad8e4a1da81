package rmi

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"wls/internal/trace"
	"wls/internal/wire"
)

// TestReplyInPlaceIsByteIdentical pins the response wire format across the
// two ways a handler can answer: returning its result, or writing it inside
// the envelope through Call.Reply. Both must equal the envelope written
// field by field, at sizes on both sides of the length-prefix widths; and a
// handler that fails (or returns a body) after writing must leave no trace
// of what it wrote.
func TestReplyInPlaceIsByteIdentical(t *testing.T) {
	r := newDispatchRegistry()
	envelope := func(status byte, errMsg string, body []byte) []byte {
		var e wire.Encoder
		e.Byte(status)
		e.String("s1")
		e.String(errMsg)
		e.Bytes2(body)
		return e.Bytes()
	}
	run := func(h Handler) []byte {
		call := callPool.Get().(*Call)
		fr := r.execute(context.Background(), 3, "s1", call, trace.SpanContext{}, MethodSpec{name: "m", Handler: h})
		releaseCall(call)
		if fr.Kind != wire.KindResponse || fr.Corr != 3 {
			t.Fatalf("frame header %+v", fr)
		}
		out := append([]byte(nil), fr.Body...)
		fr.Release()
		return out
	}
	for _, n := range []int{0, 1, 127, 128, 20000} {
		result := bytes.Repeat([]byte{'x'}, n)
		want := envelope(respOK, "", result)
		returned := run(func(context.Context, *Call) ([]byte, error) { return result, nil })
		inPlace := run(func(_ context.Context, c *Call) ([]byte, error) {
			e := c.Reply()
			for _, b := range result {
				e.Byte(b)
			}
			return nil, nil
		})
		if !bytes.Equal(returned, want) || !bytes.Equal(inPlace, want) {
			t.Fatalf("n=%d: returned/in-place envelopes differ from the field-by-field one", n)
		}
	}
	if got := run(func(context.Context, *Call) ([]byte, error) { return nil, nil }); !bytes.Equal(got, envelope(respOK, "", nil)) {
		t.Fatal("empty result envelope differs")
	}
	failed := run(func(_ context.Context, c *Call) ([]byte, error) {
		c.Reply().String("half a result")
		return nil, &AppError{Msg: "no"}
	})
	if !bytes.Equal(failed, envelope(respAppError, "no", nil)) {
		t.Fatalf("error after Reply leaked the partial result: %q", failed)
	}
	system := run(func(context.Context, *Call) ([]byte, error) { return []byte("ignored"), errors.New("boom") })
	if !bytes.Equal(system, envelope(respSystemError, "boom", nil)) {
		t.Fatalf("system error envelope: %q", system)
	}
	both := run(func(_ context.Context, c *Call) ([]byte, error) {
		c.Reply().String("discarded")
		return []byte("wins"), nil
	})
	if !bytes.Equal(both, envelope(respOK, "", []byte("wins"))) {
		t.Fatalf("returned body must replace what Reply wrote: %q", both)
	}
}
