package servlet

import (
	"bytes"
	"testing"

	"wls/internal/wire"
)

// checkForwarded holds the engine's reader of a routed request's session
// field to two rules. Any bytes read as a field give a malformed-field
// error, which the engine answers 400, or a cookie whose id names a record
// or none. And read as a cookie the router accepted, the same bytes encode
// to a field that reads back that cookie's id, primary, secondary and
// state — with the callee its primary, which the field then leaves out,
// and with another server.
func checkForwarded(t *testing.T, in []byte) {
	if c, err := readSession(wire.NewDecoder(in), []byte("server-1")); err == nil && !validID(c.ID) {
		t.Fatalf("field %x read as a %d-byte id", in, len(c.ID))
	}
	var buf CookieBuf
	sent, err := ParseCookie(in, &buf)
	if err != nil {
		return
	}
	for _, callee := range []string{string(sent.Primary), "server-9"} {
		e := wire.NewEncoder(64)
		appendSession(e, &sent, callee)
		d := wire.NewDecoder(e.Bytes())
		got, err := readSession(d, []byte(callee))
		if err != nil || d.Remaining() != 0 {
			t.Fatalf("cookie %q forwarded to %q: %v, %d bytes left", in, callee, err, d.Remaining())
		}
		if string(got.ID) != string(sent.ID) || string(got.Primary) != string(sent.Primary) ||
			string(got.Secondary) != string(sent.Secondary) || !bytes.Equal(got.State, sent.State) {
			t.Fatalf("cookie %q forwarded to %q reads back (%q, %q, %q, %v), sent (%q, %q, %q, %v)", in, callee,
				got.ID, got.Primary, got.Secondary, got.State, sent.ID, sent.Primary, sent.Secondary, sent.State)
		}
	}
}

func TestForwardedSessionFields(t *testing.T) {
	for _, s := range append(cookieCases(), "") {
		checkForwarded(t, []byte(s))
	}
	// The field of a cookie that did not parse is refused, as its text was.
	e := wire.NewEncoder(8)
	appendSession(e, nil, "server-1")
	if _, err := readSession(wire.NewDecoder(e.Bytes()), []byte("server-1")); err == nil {
		t.Fatal("the field of an unparsable cookie reads as a session")
	}
}

// FuzzForwardedSession: the seeds are the fields of cookieCases and the
// cookie texts themselves.
func FuzzForwardedSession(f *testing.F) {
	for _, s := range cookieCases() {
		f.Add([]byte(s))
		var buf CookieBuf
		if c, err := ParseCookie(s, &buf); err == nil {
			e := wire.NewEncoder(64)
			appendSession(e, &c, "server-1")
			f.Add(e.Bytes())
		}
	}
	f.Fuzz(checkForwarded)
}
