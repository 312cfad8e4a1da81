package wsdl_test

// Tests of the bytes a conversation is persisted and exported as: its id
// (exported only) and service, then its state as an attribute list.

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"wls/internal/attrs"
	"wls/internal/simtest"
	"wls/internal/wire"
	"wls/internal/wsdl"
)

// eightKeys is a conversation state of eight keys.
func eightKeys() map[string]string {
	m := map[string]string{}
	for i := 0; i < 8; i++ {
		m[fmt.Sprintf("k%d", i)] = fmt.Sprintf("v%d", i)
	}
	return m
}

// stateService is a durable service whose "set" writes eightKeys, the same
// values on every call.
func stateService() *wsdl.ServiceDef {
	return &wsdl.ServiceDef{
		Name:    "State",
		Durable: true,
		Operations: map[string]wsdl.Operation{
			"set": {Kind: wsdl.RequestResponse, Handler: func(c *wsdl.Conversation, _ []byte) ([]byte, error) {
				for k, v := range eightKeys() {
					c.Set(k, v)
				}
				return nil, nil
			}},
		},
	}
}

// exportedState reads an export, failing t unless it is well-formed, with
// its state's keys ascending if sorted.
func exportedState(t *testing.T, b []byte, sorted bool) (id string, state map[string]string) {
	t.Helper()
	d := wire.NewDecoder(b)
	id, _ = d.String(), d.String()
	list, err := attrs.Read(d, sorted)
	if err != nil {
		t.Fatalf("export %q: %v", b, err)
	}
	return id, attrs.Map(list)
}

// TestConversationBytesAreDeterministic: the same state persists and
// exports as the same bytes, every time.
func TestConversationBytesAreDeterministic(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	st := openStore(t, filepath.Join(t.TempDir(), "conv.store"))
	server := wsdl.NewPort(f.Servers[1].Registry, st)
	server.Offer(stateService())
	client := wsdl.NewPort(f.Servers[0].Registry, nil)
	f.Settle(2)
	ctx := context.Background()
	conv, err := client.StartConversation(ctx, server.Addr(), "State", nil)
	if err != nil {
		t.Fatal(err)
	}
	var persisted, exported []byte
	for i := 0; i < 20; i++ {
		if _, err := conv.Call(ctx, "set", nil); err != nil {
			t.Fatal(err)
		}
		raw, ok := st.Get("ws.conversations", conv.ID)
		exp, err := server.Export(conv.ID)
		if !ok || err != nil {
			t.Fatalf("call %d: persisted %v, export %v", i, ok, err)
		}
		if i == 0 {
			persisted, exported = raw, exp
			if _, state := exportedState(t, exp, true); !maps.Equal(state, eightKeys()) {
				t.Fatalf("exported state %v", state)
			}
			continue
		}
		if string(raw) != string(persisted) || string(exp) != string(exported) {
			t.Fatalf("call %d: the same state persisted as %x then %x, exported as %x then %x", i, persisted, raw, exported, exp)
		}
	}
}

// oldFormat writes a conversation as ports wrote it before its keys were
// sorted: here the state's pairs come in descending key order, one of the
// orders a map's iteration gave.
func oldFormat(id, service string, state map[string]string) []byte {
	e := wire.NewEncoder(128)
	if id != "" {
		e.String(id)
	}
	e.String(service)
	var keys []string
	for k := range state {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	slices.Reverse(keys)
	e.Int(len(keys))
	for _, k := range keys {
		e.String(k)
		e.String(state[k])
	}
	return e.Bytes()
}

// TestConversationsInTheOldKeyOrderStillLoad: a conversation on disk or in
// flight whose keys are out of order, as the format allowed, recovers and
// imports to the state it holds.
func TestConversationsInTheOldKeyOrderStillLoad(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	st := openStore(t, filepath.Join(t.TempDir(), "conv.store"))
	if err := st.Put("ws.conversations", "conv-disk", oldFormat("", "State", eightKeys())); err != nil {
		t.Fatal(err)
	}
	port := wsdl.NewPort(f.Servers[0].Registry, st)
	port.Offer(stateService())
	if n := port.Recover(); n != 1 {
		t.Fatalf("recovered %d conversations, want 1", n)
	}
	c, err := port.Import(oldFormat("conv-wire", "State", eightKeys()))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range eightKeys() {
		if got := c.Get(k); got != v {
			t.Fatalf("imported %s = %q, want %q", k, got, v)
		}
	}
	for _, id := range []string{"conv-disk", "conv-wire"} {
		exp, err := port.Export(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, state := exportedState(t, exp, false); got != id || !maps.Equal(state, eightKeys()) {
			t.Fatalf("%s exports as %s holding %v", id, got, state)
		}
	}
}

// TestALyingCountCostsNothing: an import body, or a record on disk, whose
// attribute count no body of its length can carry fails before anything
// is sized by it.
func TestALyingCountCostsNothing(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	st := openStore(t, filepath.Join(t.TempDir(), "conv.store"))
	port := wsdl.NewPort(f.Servers[0].Registry, st)
	port.Offer(stateService())
	e := wire.NewEncoder(16)
	e.String("c1")
	e.String("svc")
	e.Int(1 << 24)
	body := e.Bytes()
	if len(body) != 11 {
		t.Fatalf("body of %d bytes", len(body))
	}
	if err := st.Put("ws.conversations", "c1", body[len("\x02c1"):]); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var err error
	if n := allocated(func() { _, err = port.Import(body) }); err == nil || n >= 1<<20 {
		t.Fatalf("import of a count of 2^24 in 11 bytes: %v, %d bytes allocated", err, n)
	}
	var recovered int
	if n := allocated(func() { recovered = port.Recover() }); recovered != 0 || n >= 1<<20 {
		t.Fatalf("recover over a count of 2^24: %d conversations, %d bytes allocated", recovered, n)
	}
}
