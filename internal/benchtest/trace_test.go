package benchtest

import (
	"context"
	"testing"

	"wls/internal/trace"
	"wls/internal/vclock"
)

func TestServersTouchedAndHopCount(t *testing.T) {
	ring := trace.NewRing(16)
	clk := vclock.NewVirtualAtZero()
	client := trace.New("client", clk, trace.Options{Exporter: ring})
	s1 := trace.New("server-1", clk, trace.Options{Exporter: ring})
	s2 := trace.New("server-2", clk, trace.Options{Exporter: ring})

	ctx, root := client.StartRoot(context.Background(), "req", trace.KindRoute)
	_, att := root.NewChild(ctx, "rmi.attempt", trace.KindClient)
	_, h1 := s1.StartRemote(context.Background(), att.Context(), "serve", trace.KindServer)
	_, h2 := s2.StartRemote(context.Background(), h1.Context(), "serve", trace.KindServer)
	// server-1 handles a second request in the same trace: still one server.
	_, h3 := s1.StartRemote(context.Background(), h2.Context(), "serve", trace.KindServer)
	for _, s := range []*trace.Span{h3, h2, h1, att, root} {
		s.Finish()
	}

	spans := ring.Snapshot()
	id := root.Context().Trace
	touched := serversTouched(spans, id)
	if want := []string{"server-1", "server-2"}; len(touched) != 2 || touched[0] != want[0] || touched[1] != want[1] {
		t.Fatalf("serversTouched = %v, want %v", touched, want)
	}
	if hops := hopCount(spans, id); hops != 3 {
		t.Fatalf("hopCount = %d, want 3", hops)
	}
	for _, d := range spans {
		if d.Trace != id {
			t.Fatalf("span %s is in trace %s, want %s", d.Name, d.Trace, id)
		}
	}
	if got := len(spans); got != 5 {
		t.Fatalf("the trace has %d spans, want 5", got)
	}
}
