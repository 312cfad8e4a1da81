package servlet

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"wls/internal/simtest"
	"wls/internal/wire"
)

// writeServlet sets the body's "key=value" pairs, comma-separated, in order.
func writeServlet(r *Request) Response {
	for _, kv := range strings.Split(string(r.Body), ",") {
		if k, v, ok := strings.Cut(kv, "="); ok {
			r.Session.Set(k, v)
		}
	}
	return Response{}
}

// goldenSessionBytes are the bytes that leave a server for fixed session
// states, hex, with the (random) record id replaced by sixteen 'I's: each
// request frame a write sends the secondary (session.update.batch: the
// rmi envelope, then the delta entry — id, generation, the list in
// first-write order), the Fig 3 fetch reply, the whole record a Fig 2
// promotion seeds a new secondary with, and a client-state cookie. They
// were captured from the engine that kept a session as a list of
// attribute slots, before records were strings; the request frames have
// since lost the two empty id bytes wire format 6 took out of the envelope.
var goldenSessionBytes = map[string]string{
	"delta-first":   "000425494949494949494949494949494949490104046974656d08736b752d30303432016e023132",
	"delta-both":    "000422494949494949494949494949494949490204016e023133046974656d05736b752d37",
	"delta-one":     "000417494949494949494949494949494949490302016e023134",
	"fetch-reply":   "0304046974656d05736b752d37016e023134",
	"seed":          "000422494949494949494949494949494949490404046974656d05736b752d37016e023134",
	"client-cookie": "1049494949494949494949494949494949000006046974656d08736b752d30303432016e023132047573657203616e6e",
}

// TestSessionBytesAreGolden holds what a session puts on the wire to the
// bytes it put there when attributes were slots: a delta entry of a new
// session, of two keys written out of key order and of one key, a fetch
// reply, a promotion's seed and a client-state cookie written out of key
// order. The record keeps its attributes in key order, so a seed and a
// fetch reply list them in key order; these states were first written in
// key order, as the slots then held them.
func TestSessionBytesAreGolden(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	t.Cleanup(f.Stop)
	var mu sync.Mutex
	var frames []string
	f.Net.Tap(func(_, _ string, fr wire.Frame) {
		if fr.Kind == wire.KindRequest {
			mu.Lock()
			frames = append(frames, string(fr.Body))
			mu.Unlock()
		}
	})
	var engines []*Engine
	for _, s := range f.Servers {
		e := NewEngine(s.Registry, Config{})
		e.Handle("/w", writeServlet)
		engines = append(engines, e)
	}
	f.Settle(2)

	got := map[string]string{}
	var id string
	mask := func(s string) string {
		return hex.EncodeToString(bytes.ReplaceAll([]byte(s), []byte(id), []byte("IIIIIIIIIIIIIIII")))
	}
	sent := func(name string) {
		mu.Lock()
		got[name] = mask(strings.Join(frames, "|"))
		frames = frames[:0]
		mu.Unlock()
	}
	r1 := engines[0].Serve("/w", "", []byte("item=sku-0042,n=12"))
	c, err := DecodeCookie(r1.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	id = c.ID
	sent("delta-first")
	// Steady writes name no new cookie: the first one still holds.
	engines[0].Serve("/w", r1.Cookie, []byte("n=13,item=sku-7"))
	sent("delta-both")
	engines[0].Serve("/w", r1.Cookie, []byte("n=14"))
	sent("delta-one")

	var sec *Engine
	for _, e := range engines {
		if e.serverName == c.Secondary {
			sec = e
		}
	}
	args := wire.NewEncoder(32)
	args.String(id)
	reply, err := sec.sessions.handleFetch(args.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got["fetch-reply"] = mask(string(reply))
	sec.Serve("/w", r1.Cookie, nil) // Fig 2: promoted, it seeds a third server
	sent("seed")

	cf := simtest.New(simtest.Options{Servers: 1})
	t.Cleanup(cf.Stop)
	ce := NewEngine(cf.Servers[0].Registry, Config{Sessions: SessionsClientCookie})
	ce.Handle("/w", writeServlet)
	cr := ce.Serve("/w", "", []byte("n=12,item=sku-0042,user=ann"))
	raw, err := base64.RawURLEncoding.DecodeString(cr.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := DecodeCookie(cr.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	got["client-cookie"] = hex.EncodeToString(bytes.ReplaceAll(raw, []byte(cc.ID), []byte("IIIIIIIIIIIIIIII")))

	for name, want := range goldenSessionBytes {
		if got[name] != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got[name], want)
		}
	}
}
