package soap

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	in := Envelope{
		Header: Header{Action: "requestQuote", ConversationID: "c-1"},
		Body:   Body{Payload: "IBM <&> BEA"},
	}
	raw, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "<?xml") {
		t.Fatal("missing XML header")
	}
	out, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Header.Action != in.Header.Action || out.Header.ConversationID != in.Header.ConversationID ||
		out.Body.Payload != in.Body.Payload {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// legalXML is XML 1.0's Char production over valid UTF-8: the text an
// envelope can carry.
func legalXML(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		ok := r == '\t' || r == '\n' || r == '\r' || (r >= 0x20 && r <= 0xD7FF) ||
			(r >= 0xE000 && r <= 0xFFFD) || (r >= 0x10000 && r <= 0x10FFFF)
		if !ok {
			return false
		}
	}
	return true
}

// roundTrips reports whether Marshal errs exactly when the strings hold
// text XML cannot carry, and otherwise gives them back unchanged.
func roundTrips(action, conv, payload string) bool {
	raw, err := Marshal(Envelope{Header: Header{Action: action, ConversationID: conv}, Body: Body{Payload: payload}})
	if legal := legalXML(action) && legalXML(conv) && legalXML(payload); err != nil || !legal {
		return err != nil && !legal
	}
	out, err := Unmarshal(raw)
	if err != nil {
		return false
	}
	return out.Header.Action == action && out.Header.ConversationID == conv && out.Body.Payload == payload
}

// TestEnvelopePropertyRoundTrip: Marshal errs iff a string holds a rune
// outside XML's Char production or invalid UTF-8; otherwise the round trip
// is exact. Random strings hold such runes now and then (control
// characters, U+FFFE, U+FFFF) and U+FFFD, which is legal; the explicit
// cases hold each kind.
func TestEnvelopePropertyRoundTrip(t *testing.T) {
	for _, s := range []string{"a\uFFFEb", "a\uFFFFb", "a\x00b", "a\xFFb", "\r\n", "\t\uFFFD\U0010FFFF", "\x1b"} {
		if !roundTrips(s, "c", "p") || !roundTrips("a", s, "p") || !roundTrips("a", "c", s) {
			t.Errorf("%q (legal XML: %v): Marshal must err on illegal text only, and round trip the rest exactly", s, legalXML(s))
		}
	}
	if err := quick.Check(roundTrips, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultWithIllegalTextIsWellFormed: a handler error quoting text XML
// cannot carry still reaches the caller as a fault, with U+FFFD in place
// of each such character.
func TestFaultWithIllegalTextIsWellFormed(t *testing.T) {
	srv := httptest.NewServer(Endpoint(func(action, convID, payload string) (string, error) {
		return "", errors.New("bad \uFFFF\x00\xFF input")
	}))
	defer srv.Close()
	_, err := Post(nil, srv.URL, "x", "", "")
	if !errors.Is(err, ErrFault) || !strings.Contains(err.Error(), "bad \uFFFD\uFFFD\uFFFD input") {
		t.Fatalf("want a fault naming the bad input, got %v", err)
	}
}

func TestEndpointRoundTripOverHTTP(t *testing.T) {
	srv := httptest.NewServer(Endpoint(func(action, convID, payload string) (string, error) {
		if action != "echo" {
			return "", errors.New("unknown action")
		}
		return convID + ":" + payload, nil
	}))
	defer srv.Close()

	out, err := Post(nil, srv.URL, "echo", "conv-9", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if out != "conv-9:hello" {
		t.Fatalf("out = %q", out)
	}
}

func TestFaultPropagates(t *testing.T) {
	srv := httptest.NewServer(Endpoint(func(action, convID, payload string) (string, error) {
		return "", errors.New("boom")
	}))
	defer srv.Close()
	_, err := Post(nil, srv.URL, "x", "", "")
	if !errors.Is(err, ErrFault) {
		t.Fatalf("want ErrFault, got %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("fault reason lost: %v", err)
	}
}

func TestMalformedEnvelopeFaults(t *testing.T) {
	srv := httptest.NewServer(Endpoint(func(a, c, p string) (string, error) { return "", nil }))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL, "text/xml", strings.NewReader("not xml at all"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
