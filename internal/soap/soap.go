// Package soap implements the loosely-coupled wire format of §2.2/§4:
// self-describing XML envelopes over HTTP. "Since it is low in
// functionality, SOAP is simple" — this implementation keeps the envelope
// minimal (action, optional conversation id, payload) and deliberately
// adds none of the transactional extensions whose interoperability cost
// the paper warns about.
//
// Loosely-coupled clients use Post against an Endpoint handler; the
// handler is plain net/http, so any front end (including the webtier load
// balancers) can sit in front of it.
package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"unicode/utf8"
)

// Envelope is a SOAP-style message.
type Envelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Header  Header   `xml:"Header"`
	Body    Body     `xml:"Body"`
}

// Header carries addressing/conversation metadata, extensible by design
// ("XML ... payloads ... make it easier to modify one system without
// effecting others").
type Header struct {
	// Action names the operation.
	Action string `xml:"Action,omitempty"`
	// ConversationID correlates messages of one conversation (§4).
	ConversationID string `xml:"ConversationID,omitempty"`
}

// Body carries the payload or a fault.
type Body struct {
	// Payload is the operation content (character data).
	Payload string `xml:"Payload,omitempty"`
	// Fault reports a processing failure.
	Fault *Fault `xml:"Fault,omitempty"`
}

// Fault is a SOAP fault.
type Fault struct {
	Code   string `xml:"faultcode"`
	Reason string `xml:"faultstring"`
}

// Marshal renders an envelope as XML. It refuses an envelope with a
// string XML 1.0 cannot carry — a rune outside its Char production, such
// as U+0000 or U+FFFF, or invalid UTF-8 — since encoding/xml would write
// U+FFFD in its place and report nothing.
func Marshal(e Envelope) ([]byte, error) {
	fields := []string{e.Header.Action, e.Header.ConversationID, e.Body.Payload}
	if f := e.Body.Fault; f != nil {
		fields = append(fields, f.Code, f.Reason)
	}
	for _, s := range fields {
		if !isXMLText(s) {
			return nil, errors.New("soap: envelope text holds a character XML cannot carry")
		}
	}
	out, err := xml.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// isXMLChar reports whether r is in XML 1.0's Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// isXMLText reports whether s is valid UTF-8 of XML Chars only.
func isXMLText(s string) bool {
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || !isXMLChar(r) {
			return false
		}
		i += n
	}
	return true
}

// Unmarshal parses an envelope.
func Unmarshal(b []byte) (Envelope, error) {
	var e Envelope
	if err := xml.Unmarshal(b, &e); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// Handler processes one SOAP request; returning an error produces a fault.
type Handler func(action, convID, payload string) (string, error)

// Endpoint adapts a Handler to net/http.
//
//wls:nolint unreached -- library-only: §4, TestSOAPBridgeDrivesConversations
func Endpoint(h Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer r.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
		if err != nil {
			writeFault(w, "Client", err.Error())
			return
		}
		env, err := Unmarshal(raw)
		if err != nil {
			writeFault(w, "Client", "malformed envelope: "+err.Error())
			return
		}
		out, err := h(env.Header.Action, env.Header.ConversationID, env.Body.Payload)
		if err != nil {
			writeFault(w, "Server", err.Error())
			return
		}
		resp := Envelope{
			Header: Header{Action: env.Header.Action + "Response", ConversationID: env.Header.ConversationID},
			Body:   Body{Payload: out},
		}
		b, err := Marshal(resp)
		if err != nil {
			writeFault(w, "Server", err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		w.Write(b)
	})
}

// writeFault sends a fault. A character of reason XML cannot carry (an
// error may quote the bad input) becomes U+FFFD, so the fault is always
// well formed.
func writeFault(w http.ResponseWriter, code, reason string) {
	reason = strings.Map(func(r rune) rune {
		if isXMLChar(r) {
			return r
		}
		return utf8.RuneError
	}, reason)
	b, _ := Marshal(Envelope{Body: Body{Fault: &Fault{Code: code, Reason: reason}}})
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(http.StatusInternalServerError)
	w.Write(b)
}

// ErrFault wraps a SOAP fault returned by the peer.
var ErrFault = errors.New("soap: fault")

// Post sends one SOAP request and returns the response payload.
//
//wls:nolint unreached -- library-only: §4, TestSOAPBridgeDrivesConversations
func Post(client *http.Client, url, action, convID, payload string) (string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	b, err := Marshal(Envelope{
		Header: Header{Action: action, ConversationID: convID},
		Body:   Body{Payload: payload},
	})
	if err != nil {
		return "", err
	}
	resp, err := client.Post(url, "text/xml; charset=utf-8", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", err
	}
	env, err := Unmarshal(raw)
	if err != nil {
		return "", err
	}
	if env.Body.Fault != nil {
		return "", fmt.Errorf("%w: %s: %s", ErrFault, env.Body.Fault.Code, env.Body.Fault.Reason)
	}
	return env.Body.Payload, nil
}
