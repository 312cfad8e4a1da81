package rmi_test

import (
	"context"
	"strings"
	"testing"

	"wls/internal/cluster"
	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/trace"
	"wls/internal/wire"
)

// traceUp wires tracers (100% sampling, shared ring) onto the given
// servers and returns the ring plus a client-side tracer named "client".
func traceUp(f *simtest.Fixture, servers ...*simtest.Server) (*trace.Ring, *trace.Tracer) {
	ring := trace.NewRing(1024)
	for _, s := range servers {
		s.Registry.SetTracer(trace.New(s.Name, f.Clock, trace.Options{Exporter: ring}))
	}
	return ring, trace.New("client", f.Clock, trace.Options{Exporter: ring})
}

func TestTracePropagatesAcrossServers(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	ring, ctr := traceUp(f, f.Servers...)

	ctx, root := ctr.StartRoot(context.Background(), "req", trace.KindInternal)
	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	res, err := stub.Invoke(ctx, "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	root.Finish()

	spans := ring.Snapshot()
	id := root.Context().Trace
	// attempt -> rmi.call -> root on the client, plus one server span.
	byName := map[string]trace.SpanData{}
	for _, d := range spans {
		if d.Trace == id {
			byName[d.Name] = d
		}
	}
	call, ok := byName["rmi.call Echo.echo"]
	if !ok {
		t.Fatalf("no client call span in %v", byName)
	}
	att, ok := byName["rmi.attempt"]
	if !ok || att.Parent != call.ID {
		t.Fatalf("attempt span missing or misparented: %+v", att)
	}
	srv, ok := byName["rmi.serve Echo.echo"]
	if !ok {
		t.Fatal("no server span")
	}
	if srv.Parent != att.ID {
		t.Fatalf("server span parent = %s, want attempt %s", srv.Parent, att.ID)
	}
	if srv.Server != res.ServedBy {
		t.Fatalf("server span on %s, but request served by %s", srv.Server, res.ServedBy)
	}
	hops := 0
	for _, d := range spans {
		if d.Trace == id && d.Kind == trace.KindServer {
			hops++
		}
	}
	if hops != 1 {
		t.Fatalf("%d server spans in the trace, want 1", hops)
	}
}

// TestMixedVersionTracedCallerUntracedHandler: a traced caller sends the
// envelope to a server without a tracer — the pre-tracing decode path. The
// request must behave identically to an untraced one.
func TestMixedVersionTracedCallerUntracedHandler(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	ring := trace.NewRing(64)
	ctr := trace.New("client", f.Clock, trace.Options{Exporter: ring})
	// Note: no SetTracer on any registry.

	ctx, root := ctr.StartRoot(context.Background(), "req", trace.KindInternal)
	stub := f.Servers[0].Stub("Echo")
	res, err := stub.Invoke(ctx, "echo", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(res.Body), ":payload") {
		t.Fatalf("handler saw a different request: %q", res.Body)
	}
	root.Finish()
	for _, d := range ring.Snapshot() {
		if d.Kind == trace.KindServer {
			t.Fatalf("untraced handler produced a server span: %+v", d)
		}
	}
}

// TestMixedVersionUntracedCallerTracedHandler: an old-style request with
// no envelope reaching a traced server must be handled identically to
// today — no span, no error.
func TestMixedVersionUntracedCallerTracedHandler(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	ring, _ := traceUp(f, f.Servers...)

	stub := f.Servers[0].Stub("Echo")
	res, err := stub.Invoke(context.Background(), "echo", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(res.Body), ":payload") {
		t.Fatalf("handler saw a different request: %q", res.Body)
	}
	if n := len(ring.Snapshot()); n != 0 {
		t.Fatalf("untraced request produced %d spans", n)
	}
}

// orderPolicy is a test policy with a fixed server-name order.
type orderPolicy struct{ names []string }

func (p orderPolicy) Order(_ context.Context, _ string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	byName := map[string]cluster.MemberInfo{}
	for _, c := range cands {
		byName[c.Name] = c
	}
	out := make([]cluster.MemberInfo, 0, len(cands))
	for _, n := range p.names {
		if c, ok := byName[n]; ok {
			out = append(out, c)
		}
	}
	return out
}

func TestFailoverRetriesAreDistinctChildSpans(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 3})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	ring, ctr := traceUp(f, f.Servers...)

	// Kill server-2, then force the stub to try it first: the dead attempt
	// and the successful retry must both appear as children, with only the
	// final attempt marked.
	f.Servers[1].Endpoint.Close()
	ctx, root := ctr.StartRoot(context.Background(), "req", trace.KindInternal)
	stub := f.Servers[0].Stub("Echo",
		rmi.WithPolicy(orderPolicy{names: []string{"server-2", "server-3", "server-1"}}))
	res, err := stub.Invoke(ctx, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "server-3" {
		t.Fatalf("served by %s, want server-3", res.ServedBy)
	}
	root.Finish()

	var attempts []trace.SpanData
	for _, d := range ring.Snapshot() {
		if d.Trace == root.Context().Trace && d.Name == "rmi.attempt" {
			attempts = append(attempts, d)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("got %d attempt spans, want 2", len(attempts))
	}
	ann := func(d trace.SpanData, key string) string {
		for _, a := range d.Annotations {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	first, second := attempts[0], attempts[1]
	if ann(first, "attempt") != "1" {
		first, second = second, first
	}
	if ann(first, "target") != "server-2" || first.Error == "" || ann(first, "final") == "true" {
		t.Fatalf("failed attempt span wrong: %+v", first)
	}
	if ann(second, "target") != "server-3" || second.Error != "" || ann(second, "final") != "true" {
		t.Fatalf("final attempt span wrong: %+v", second)
	}
	if first.Parent != second.Parent || first.ID == second.ID {
		t.Fatalf("attempts are not distinct siblings: %+v %+v", first, second)
	}
}

// FuzzRequestBody feeds arbitrary request bodies straight into a live
// server's frame handler: malformed bodies (including corrupt names and
// trace envelopes) must produce an error response, never a panic.
func FuzzRequestBody(f *testing.F) {
	base := append([]byte(nil), rawRequest().Bytes()...)
	f.Add(base)
	// Names as codes: wls.cluster is entry 4 of the built-in table and view
	// entry 5, so {8, 10} names the cluster-view method every server deploys.
	f.Add([]byte{8, 10, 0})
	f.Add([]byte{8, 0x80})                   // truncated code
	f.Add([]byte{8, 0xFE, 0x01, 0})          // an index past the table's end
	f.Add([]byte{8, 1, 0})                   // an empty literal
	f.Add([]byte{8, 0x41, 'v', 'i', 'e'})    // a literal longer than the body
	f.Add(append([]byte{0x07}, base[1:]...)) // "Echo" spelled a byte short: the rest misparses
	f.Add(append(base, 0xC7))                // truncated envelope
	f.Add(append(base, 0xC7, 0x01))          // still truncated
	f.Add(append(base, 0x00, 0x01, 0x02))    // garbage tail
	f.Add([]byte{})                          // empty body
	f.Add([]byte{0xFF, 0xFF, 0xFF})          // garbage body
	f.Add(append(base, 0xD9))                // truncated deadline block
	f.Add(append(base, 0xD9, 0x02))          // unknown deadline version
	f.Add(append(base, 0xD9, 0x01, 0x80))    // truncated remaining varint
	withDeadline := append(append([]byte(nil), base...), 0xD9, 0x01, 0x00)
	f.Add(withDeadline)                     // expired on arrival
	f.Add(append(withDeadline, 0xC7))       // valid deadline, truncated envelope
	f.Add(append(withDeadline, 0xC7, 0x01)) // both tails, still truncated
	f.Fuzz(func(t *testing.T, body []byte) {
		fx := simtest.New(simtest.Options{Servers: 1})
		defer fx.Stop()
		deployEcho(fx.Servers...)
		fx.Settle(1)
		ring, _ := traceUp(fx, fx.Servers...)
		_ = ring
		// Drive the raw frame path (bypassing the stub's well-formed
		// encoder) against the server endpoint.
		client := fx.Net.Endpoint("10.9.9.9:1")
		_, _ = client.Call(context.Background(), fx.Servers[0].Endpoint.Addr(),
			wire.Frame{Kind: wire.KindRequest, Body: body})
	})
}

// TestUnsampledRootExportsNothing: servers whose tracers sample every root
// of their own export no span for a call under an unsampled root.
func TestUnsampledRootExportsNothing(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 1})
	defer f.Stop()
	deployEcho(f.Servers...)
	f.Settle(2)
	ring, _ := traceUp(f, f.Servers...)
	never := trace.New("client", f.Clock, trace.Options{Sampler: trace.Never(), Exporter: ring})
	stub := f.Servers[0].Stub("Echo", rmi.WithPolicy(rmi.NewRoundRobin()))
	for i := 0; i < 10; i++ {
		ctx, span := never.StartRoot(context.Background(), "req", trace.KindInternal)
		if _, err := stub.Invoke(ctx, "echo", []byte("hi")); err != nil {
			t.Fatal(err)
		}
		span.Finish()
	}
	if spans := ring.Snapshot(); len(spans) != 0 {
		t.Fatalf("unsampled requests exported %d spans", len(spans))
	}
}
