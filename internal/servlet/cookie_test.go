package servlet

import (
	"encoding/base64"
	"maps"
	"strings"
	"testing"

	"wls/internal/attrs"
	"wls/internal/wire"
)

// rawCookie encodes fields and an attribute count the way encodeCookie
// does, without its checks: the count may lie and tail may be anything.
func rawCookie(id, primary, secondary string, count int, tail ...string) string {
	e := wire.NewEncoder(64)
	e.String(id)
	e.String(primary)
	e.String(secondary)
	e.Int(count)
	for _, s := range tail {
		e.String(s)
	}
	return base64.RawURLEncoding.EncodeToString(e.Bytes())
}

// testID is a record id, as a cookie carries one: 16 bytes.
const testID = "\x00\x01sixteen-bytes\xff"

// cookieCases is what the request path may be handed: valid, truncated,
// not base64, over-long, state-bearing, lying about its attributes, and
// naming an id that is no record id.
func cookieCases() []string {
	valid := encodeCookie(testID, "server-1", "server-2", attrs.Empty)
	long := strings.Repeat("n", len(CookieBuf{}))
	cases := []string{
		valid,
		encodeCookie(testID, "server-1", "", attrs.Empty),
		Cookie{ID: testID}.Encode(),
		rawCookie("", "", "", 0),
		rawCookie(testID, "p", "s", 0, "trailing", "bytes"),
		// Exactly the array (id 17 + primary 1+75 + secondary 2 + count 1),
		// one byte over it, far over it.
		rawCookie(testID, long[:75], "s", 0),
		rawCookie(testID, long[:76], "s", 0),
		encodeCookie(testID, "primary-"+long, "secondary-"+long, attrs.Empty),
		// Ids that are no record id: short, long, one byte off, far over.
		rawCookie("s-1", "p", "s", 0),
		rawCookie("server-1-sess-1234", "server-1", "server-2", 0),
		rawCookie(testID[:15], "p", "s", 0),
		rawCookie(testID+"x", "p", "s", 0),
		rawCookie("id-"+long, "p", "s", 0),
		Cookie{ID: "s-1", State: map[string]string{"n": "1"}}.Encode(),
		// State.
		Cookie{ID: testID, State: map[string]string{"n": "1"}}.Encode(),
		Cookie{ID: testID, Primary: "p", Secondary: "s", State: map[string]string{"n": "1", "item": long}}.Encode(),
		// Lying counts: more than the payload holds, negative, short by one.
		rawCookie(testID, "p", "s", 1),
		rawCookie(testID, "p", "s", 1<<40, "k", "v"),
		rawCookie(testID, "p", "s", -1),
		rawCookie(testID, "p", "s", 1, "k", "v", "k2", "v2"),
		// Not base64, base64 of nothing useful, base64 the decoder skips over.
		"!!!not-base64!!!",
		"not-a-cookie",
		"A",
		"AAAA",
		valid[:4] + "\n" + valid[4:],
		valid + "=",
		strings.Repeat("A", 4*len(CookieBuf{})/3+1),
	}
	for cut := 1; cut < len(valid); cut += 3 {
		cases = append(cases, valid[:cut])
	}
	return cases
}

// checkParse holds ParseCookie to the general decoder on one input: the
// same accept/reject and the same fields, from the string and from the
// bytes.
func checkParse(t *testing.T, s string) {
	t.Helper()
	want, wantErr := DecodeCookie(s)
	for _, form := range []string{"string", "bytes"} {
		var buf CookieBuf
		parse := func() (CookieRef, error) { return ParseCookie(s, &buf) }
		if b := []byte(s); form == "bytes" {
			parse = func() (CookieRef, error) { return ParseCookie(b, &buf) }
		}
		c, err := parse()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q (%s): ParseCookie error %v, general decoder %v", s, form, err, wantErr)
		}
		if err != nil {
			continue
		}
		if string(c.ID) != want.ID || string(c.Primary) != want.Primary || string(c.Secondary) != want.Secondary || !maps.Equal(attrs.Map(c.State), want.State) {
			t.Fatalf("%q (%s): ParseCookie (%q, %q, %q, %v), general decoder %+v", s, form, c.ID, c.Primary, c.Secondary, c.State, want)
		}
	}
}

func TestParseCookieMatchesGeneralDecoder(t *testing.T) {
	for _, s := range append(cookieCases(), "") {
		checkParse(t, s)
	}
}
