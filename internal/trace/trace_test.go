package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"wls/internal/vclock"
)

func newTestTracer(name string, ring *Ring) (*Tracer, *vclock.Virtual) {
	clk := vclock.NewVirtualAtZero()
	return New(name, clk, Options{Exporter: ring}), clk
}

func TestRootChildIdentity(t *testing.T) {
	ring := NewRing(16)
	tr, clk := newTestTracer("server-1", ring)

	ctx, root := tr.StartRoot(context.Background(), "req", KindRoute)
	if root == nil {
		t.Fatal("root not sampled")
	}
	if root.Context().Trace.IsZero() {
		t.Fatal("zero trace id")
	}
	clk.Advance(time.Millisecond)
	childCtx, child := root.NewChild(ctx, "step", KindClient)
	if child.Context().Trace != root.Context().Trace {
		t.Fatal("child in different trace")
	}
	if child.Context().Span == root.Context().Span {
		t.Fatal("child reused span id")
	}
	if FromContext(childCtx) != child {
		t.Fatal("context does not carry child")
	}
	clk.Advance(time.Millisecond)
	child.Finish()
	root.Finish()

	spans := ring.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Child exports first (finished first).
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %s, want root %s", spans[0].Parent, spans[1].ID)
	}
	if d := spans[0].End.Sub(spans[0].Start); d != time.Millisecond {
		t.Fatalf("child duration = %v, want 1ms", d)
	}
	if d := spans[1].End.Sub(spans[1].Start); d != 2*time.Millisecond {
		t.Fatalf("root duration = %v, want 2ms", d)
	}
}

func TestDeterministicIDsAcrossRuns(t *testing.T) {
	run := func() string {
		ring := NewRing(64)
		clk := vclock.NewVirtualAtZero()
		a := New("server-1", clk, Options{Exporter: ring})
		b := New("server-2", clk, Options{Exporter: ring})
		for i := 0; i < 3; i++ {
			ctx, root := a.StartRoot(context.Background(), "req", KindRoute)
			clk.Advance(time.Millisecond)
			_, child := root.NewChild(ctx, "rmi.call", KindClient)
			// Simulate the remote side continuing from the envelope.
			_, srv := b.StartRemote(context.Background(), child.Context(), "rmi.serve", KindServer)
			clk.Advance(time.Millisecond)
			srv.Finish()
			child.Finish()
			root.Finish()
		}
		return CanonicalDump(ring.Snapshot())
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("dumps differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", d1, d2)
	}
	if !strings.Contains(d1, "server=server-2") {
		t.Fatalf("remote spans missing:\n%s", d1)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.StartRoot(context.Background(), "x", KindInternal)
	if span != nil {
		t.Fatal("nil tracer produced a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("nil tracer modified ctx")
	}
	// All nil-span methods must be no-ops.
	span.Annotate("k", "v")
	span.AnnotateInt("n", 1)
	span.SetError(errors.New("boom"))
	span.Finish()
	if c := span.Context(); c.Sampled || c.Valid() {
		t.Fatal("nil span has a context")
	}
	if _, child := span.NewChild(ctx, "y", KindInternal); child != nil {
		t.Fatal("nil span produced a child")
	}
	if span.Child("z", KindInternal) != nil {
		t.Fatal("nil span produced a child")
	}
}

func TestUnsampledRootStartsNothing(t *testing.T) {
	ring := NewRing(4)
	tr := New("s", vclock.NewVirtualAtZero(), Options{Sampler: Never(), Exporter: ring})
	_, span := tr.StartRoot(context.Background(), "x", KindInternal)
	if span != nil {
		t.Fatal("Never sampler produced a span")
	}
	if len(ring.Snapshot()) != 0 {
		t.Fatal("unsampled root exported")
	}
}

func TestSamplers(t *testing.T) {
	s := EveryNth(3)
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, s.Sample())
	}
	want := []bool{true, false, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EveryNth(3) sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	if !Ratio(1).Sample() {
		t.Fatal("Ratio(1) must always sample")
	}
	if Ratio(0).Sample() {
		t.Fatal("Ratio(0) must never sample")
	}
	r := Ratio(0.01)
	n := 0
	for i := 0; i < 1000; i++ {
		if r.Sample() {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("Ratio(0.01) sampled %d of 1000, want 10", n)
	}
}

func TestFinishIdempotentAndLateAnnotate(t *testing.T) {
	ring := NewRing(4)
	tr, _ := newTestTracer("s", ring)
	_, span := tr.StartRoot(context.Background(), "x", KindInternal)
	span.Annotate("k", "v")
	span.Finish()
	span.Finish()
	span.Annotate("late", "ignored")
	span.SetError(errors.New("late"))
	if n := len(ring.Snapshot()); n != 1 {
		t.Fatalf("exported %d times, want 1", n)
	}
	d := ring.Snapshot()[0]
	if len(d.Annotations) != 1 || d.Error != "" {
		t.Fatalf("late mutation leaked into export: %+v", d)
	}
}

func TestRingWrapAndTail(t *testing.T) {
	ring := NewRing(3)
	tr, _ := newTestTracer("s", ring)
	for i := 0; i < 5; i++ {
		_, span := tr.StartRoot(context.Background(), "x", KindInternal)
		span.AnnotateInt("i", i)
		span.Finish()
	}
	if _, total := ring.SnapshotSince(0); total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	snap := ring.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d, want 3", len(snap))
	}
	if snap[0].Annotations[0].Value != "2" || snap[2].Annotations[0].Value != "4" {
		t.Fatalf("wrong retention window: %+v", snap)
	}
	// Tail protocol: ask for spans after sequence 4 (the 5th span).
	tail, next := ring.SnapshotSince(4)
	if len(tail) != 1 || tail[0].Annotations[0].Value != "4" || next != 5 {
		t.Fatalf("SnapshotSince(4) = %d spans next=%d", len(tail), next)
	}
	if tail, next = ring.SnapshotSince(next); len(tail) != 0 || next != 5 {
		t.Fatal("tail past the end must be empty")
	}
}

func TestJSONLExporter(t *testing.T) {
	var buf bytes.Buffer
	jl := NewJSONL(&buf)
	tr := New("s", vclock.NewVirtualAtZero(), Options{Exporter: jl})
	_, span := tr.StartRoot(context.Background(), "req", KindTx)
	span.Annotate("k", "v")
	span.SetError(errors.New("boom"))
	span.Finish()
	if err := jl.Err(); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("invalid JSONL output %q: %v", buf.String(), err)
	}
	if obj["kind"] != "tx" || obj["server"] != "s" || obj["error"] != "boom" {
		t.Fatalf("unexpected JSONL fields: %v", obj)
	}
}

func TestChromeTraceExport(t *testing.T) {
	ring := NewRing(8)
	tr, clk := newTestTracer("server-1", ring)
	ctx, root := tr.StartRoot(context.Background(), "req", KindRoute)
	clk.Advance(time.Millisecond)
	_, child := root.NewChild(ctx, "step", KindClient)
	clk.Advance(time.Millisecond)
	child.Finish()
	root.Finish()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ring.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// 1 thread_name metadata event + 2 span events.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
}

func TestCanonicalDumpSortsAndIsStable(t *testing.T) {
	ring := NewRing(8)
	tr, _ := newTestTracer("s", ring)
	for i := 0; i < 3; i++ {
		_, span := tr.StartRoot(context.Background(), "x", KindInternal)
		span.Finish()
	}
	spans := ring.Snapshot()
	rev := []SpanData{spans[2], spans[0], spans[1]}
	if CanonicalDump(spans) != CanonicalDump(rev) {
		t.Fatal("dump depends on input order")
	}
	if got := strings.Count(CanonicalDump(spans), "\n"); got != 3 {
		t.Fatalf("dump has %d lines, want 3", got)
	}
}
