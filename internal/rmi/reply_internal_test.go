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
	// A reply names no server: the status, then the result on OK and the
	// error message otherwise.
	envelope := func(status byte, errMsg string, body []byte) []byte {
		var e wire.Encoder
		e.Byte(status)
		if status == respOK {
			e.Bytes2(body)
		} else {
			e.String(errMsg)
		}
		return e.Bytes()
	}
	run := func(h Handler) []byte {
		call := callPool.Get().(*Call)
		fr := r.execute(context.Background(), nil, 3, call, trace.SpanContext{}, MethodSpec{name: "m", Handler: h}, Budget{})
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

// replyNode is a Node whose every call is answered with one fixed body.
type replyNode struct{ body []byte }

func (replyNode) Addr() string            { return "client:0" }
func (replyNode) SetHandler(wire.Handler) {}
func (n replyNode) Call(context.Context, string, wire.Frame) (wire.Frame, error) {
	return wire.Frame{Kind: wire.KindResponse, Body: n.body}, nil
}

// FuzzDecodeResponse hands a stub arbitrary reply bodies: a malformed one
// is an ErrNotRetryable error, never a panic, and a well-formed one is
// attributed to the server the stub called, which the reply does not name.
func FuzzDecodeResponse(f *testing.F) {
	var e wire.Encoder
	e.Byte(respOK)
	e.Bytes2([]byte("result"))
	ok := bytes.Clone(e.Bytes())
	f.Add(ok)
	f.Add(ok[:len(ok)-1])                           // result cut short
	f.Add(append(bytes.Clone(ok), 0))               // a byte past the last field
	f.Add([]byte{})                                 // no status
	f.Add([]byte{respOK})                           // no result field
	f.Add([]byte{respAppError, 2, 'n', 'o'})        // an application error
	f.Add([]byte{respBusy, 5, 'f'})                 // a message longer than the body
	f.Add([]byte{respSystemError, 0x80})            // a cut-off message length
	f.Add([]byte{0x7F, 0})                          // an unknown status
	f.Add([]byte{respOK, 0, 8, 's', 'e', 'r', 'v'}) // a served-by after the result
	f.Fuzz(func(t *testing.T, body []byte) {
		stub := NewStub("S", replyNode{body}, NamedStaticView("server-1", "10.0.0.1:7001"))
		res, err := stub.InvokeOn(context.Background(), "10.0.0.1:7001", "m", nil)
		if _, derr := decodeResponse(body); derr != nil {
			if !errors.Is(err, ErrNotRetryable) {
				t.Fatalf("malformed reply %x (%v): got %v, want ErrNotRetryable", body, derr, err)
			}
			return
		}
		var busy *BusyError
		switch {
		case body[0] == respOK:
			if err != nil || res.ServedBy != "server-1" {
				t.Fatalf("OK reply %x: %+v, %v; want a result served by server-1", body, res, err)
			}
		case err == nil:
			t.Fatalf("failure reply %x (status %d) returned a result", body, body[0])
		case errors.As(err, &busy) && busy.Server != "server-1":
			t.Fatalf("BUSY reply %x names %q, want server-1", body, busy.Server)
		}
	})
}
