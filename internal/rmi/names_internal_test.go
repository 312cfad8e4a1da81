package rmi

import (
	"testing"

	"wls/internal/wire"
)

// TestNameCodecRoundTrips pins the name codec of the request envelope:
// every built-in name is one byte and reads back as itself, any other name
// costs what a length-prefixed string does, and an empty literal, an index
// past the table or a cut-off field is malformed.
func TestNameCodecRoundTrips(t *testing.T) {
	seen := map[string]bool{}
	for i, name := range builtinNames {
		if seen[name] || name == "" {
			t.Fatalf("table entry %d %q is empty or repeated", i, name)
		}
		seen[name] = true
		var e wire.Encoder
		appendName(&e, name)
		if e.Len() != 1 {
			t.Fatalf("%q is %d bytes on the wire, want 1", name, e.Len())
		}
		d := wire.NewDecoder(e.Bytes())
		if got := readName(d); string(got) != name || d.Remaining() != 0 {
			t.Fatalf("%q read back as %q with %d bytes left", name, got, d.Remaining())
		}
	}

	for _, name := range []string{"Cart", "wls.singleton.orders", string(make([]byte, 200))} {
		var e, plain wire.Encoder
		appendName(&e, name)
		plain.String(name)
		if e.Len() != plain.Len() {
			t.Fatalf("literal %.20q is %d bytes, a length-prefixed string %d", name, e.Len(), plain.Len())
		}
		d := wire.NewDecoder(e.Bytes())
		if got := readName(d); string(got) != name || d.Remaining() != 0 {
			t.Fatalf("literal %.20q read back as %.20q", name, got)
		}
	}

	past := wire.Encoder{}
	past.Uint64(uint64(len(builtinNames)) << 1)
	for what, b := range map[string][]byte{
		"an empty literal":          {0x01},
		"an index past the table":   past.Bytes(),
		"a cut-off code":            {0x80},
		"a literal past the buffer": {0x09, 'C', 'a'},
		"nothing":                   {},
	} {
		if got := readName(wire.NewDecoder(b)); got != nil {
			t.Fatalf("%s (%x) read as %q, want malformed", what, b, got)
		}
	}
}
